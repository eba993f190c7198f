package obs

import (
	"slices"
	"sort"
	"strings"

	"vulcan/internal/metrics"
)

// Label is one dimension of a metric's identity. The conventional keys
// are "app" and "tier"; exporters sort labels by key so call-site order
// never leaks into output.
type Label struct {
	Key string
	Val string
}

// App is the canonical per-application label.
func App(name string) Label { return Label{Key: "app", Val: name} }

// Tier is the canonical per-tier label ("fast"/"slow").
func Tier(name string) Label { return Label{Key: "tier", Val: name} }

// metricID renders the canonical instrument identity:
// name{k1=v1,k2=v2} with labels sorted by key.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Val)
	}
	b.WriteByte('}')
	return b.String()
}

// Gauge is a set-to-current-value instrument.
type Gauge struct{ v float64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// value returns the last set value. It is unexported on purpose: only
// the exporters read instruments back, so control code cannot depend on
// telemetry being enabled.
func (g *Gauge) value() float64 { return g.v }

// Registry is the simulator's metric namespace: named gauges and
// fixed-bucket histograms, each optionally labeled per app and per
// tier. Lookup is create-on-first-use, so instrumentation sites never
// pre-register. The zero Registry is not usable; call NewRegistry.
//
// Beside each kind's lookup map, the registry keeps the kind's
// identities in ascending order with their instruments, from
// registration and Restore onward, so the per-epoch export walks
// slices instead of sorting map keys.
type Registry struct {
	gauges map[string]*Gauge
	histos map[string]*metrics.Histogram

	gaugeList sortedIDs[*Gauge]
	histoList sortedIDs[histoRows]
}

// sortedIDs holds instrument identities in ascending order, each with
// its value at the same index.
type sortedIDs[T any] struct {
	ids  []string
	vals []T
}

// insert adds an identity not yet present at its sorted position.
func (s *sortedIDs[T]) insert(id string, v T) {
	i, _ := slices.BinarySearch(s.ids, id)
	s.ids = slices.Insert(s.ids, i, id)
	s.vals = slices.Insert(s.vals, i, v)
}

// histoRows is a histogram with its four exported row names.
type histoRows struct {
	h    *metrics.Histogram
	rows [4]string // id.count, id.p50, id.p95, id.p99
}

func newHistoRows(id string, h *metrics.Histogram) histoRows {
	return histoRows{h: h, rows: [4]string{id + ".count", id + ".p50", id + ".p95", id + ".p99"}}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]*Gauge),
		histos: make(map[string]*metrics.Histogram),
	}
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	id := metricID(name, labels)
	g := r.gauges[id]
	if g == nil {
		g = &Gauge{}
		r.gauges[id] = g
		r.gaugeList.insert(id, g)
	}
	return g
}

// Histogram returns (creating if needed) the named fixed-bucket
// histogram over [min, max) with n buckets. The shape arguments apply
// only on first use.
func (r *Registry) Histogram(name string, min, max float64, n int, labels ...Label) *metrics.Histogram {
	id := metricID(name, labels)
	h := r.histos[id]
	if h == nil {
		h = metrics.NewHistogram(min, max, n)
		r.histos[id] = h
		r.histoList.insert(id, newHistoRows(id, h))
	}
	return h
}

// snapshot appends one row per instrument to out, in sorted-identity
// order: gauges by value, histograms expanded to
// count/p50/p95/p99 via metrics.HistSummary. This is the registry's
// only export path, shared by the CSV exporter.
//
//vulcan:hotpath
func (r *Registry) snapshot(out []metricRow) []metricRow {
	for i, g := range r.gaugeList.vals {
		out = append(out, metricRow{ID: r.gaugeList.ids[i], Val: g.value()})
	}
	for _, hr := range r.histoList.vals {
		s := hr.h.Summary()
		out = append(out,
			metricRow{ID: hr.rows[0], Val: float64(s.Count)},
			metricRow{ID: hr.rows[1], Val: s.P50},
			metricRow{ID: hr.rows[2], Val: s.P95},
			metricRow{ID: hr.rows[3], Val: s.P99},
		)
	}
	return out
}

// metricRow is one exported (identity, value) pair.
type metricRow struct {
	ID  string
	Val float64
}
