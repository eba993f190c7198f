package obs

import (
	"math"
	"slices"
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

// Gauge is a set-to-current-value instrument.
type Gauge struct {
	v   float64
	row rowMemo
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v float64) { g.v = v }

// value returns the last set value. It is unexported on purpose: only
// the exporters read instruments back, so control code cannot depend on
// telemetry being enabled.
func (g *Gauge) value() float64 { return g.v }

// rowMemo is one exported row's memory across flushes: the value bits
// its CSV tail was last formatted from, that "id,value\n" tail, and
// the row's interned identity in its recorder's batch log (0 = not yet
// interned, else index+1).
type rowMemo struct {
	bits uint64
	tail []byte
	sid  uint32
}

// csvTail returns the row's "id,value\n" tail, re-formatting it into
// the kept buffer only when the value's bits changed. Comparing bits
// keeps -0 and NaN payloads exact.
func (m *rowMemo) csvTail(id string, v float64) []byte {
	if b := math.Float64bits(v); b != m.bits || len(m.tail) == 0 {
		m.bits = b
		m.tail = appendCSVTail(m.tail[:0], id, v)
	}
	return m.tail
}

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
	histoList sortedIDs[*histoRows]

	// A lookup builds its key here, so a hit allocates nothing.
	key    []byte  //vulcan:nosnap lookup scratch, dead between calls
	labels []Label //vulcan:nosnap lookup scratch, dead between calls
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

// histoRows is a histogram with its four exported row names and their
// memos.
type histoRows struct {
	h     *metrics.Histogram
	rows  [4]string // id.count, id.p50, id.p95, id.p99
	memos [4]rowMemo
}

func newHistoRows(id string, h *metrics.Histogram) *histoRows {
	return &histoRows{h: h, rows: [4]string{id + ".count", id + ".p50", id + ".p95", id + ".p99"}}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		gauges: make(map[string]*Gauge),
		histos: make(map[string]*metrics.Histogram),
	}
}

// identity renders the canonical instrument identity into the key
// buffer: name{k1=v1,k2=v2} with labels sorted by key.
func (r *Registry) identity(name string, labels []Label) []byte {
	r.key = append(r.key[:0], name...)
	if len(labels) == 0 {
		return r.key
	}
	r.labels = append(r.labels[:0], labels...)
	slices.SortStableFunc(r.labels, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	r.key = append(r.key, '{')
	for i, l := range r.labels {
		if i > 0 {
			r.key = append(r.key, ',')
		}
		r.key = append(r.key, l.Key...)
		r.key = append(r.key, '=')
		r.key = append(r.key, l.Val...)
	}
	r.key = append(r.key, '}')
	return r.key
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	key := r.identity(name, labels)
	g := r.gauges[string(key)]
	if g == nil {
		id := string(key)
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
	key := r.identity(name, labels)
	h := r.histos[string(key)]
	if h == nil {
		id := string(key)
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
		out = append(out, metricRow{ID: r.gaugeList.ids[i], Val: g.value(), memo: &g.row})
	}
	for _, hr := range r.histoList.vals {
		s := hr.h.Summary()
		out = append(out,
			metricRow{ID: hr.rows[0], Val: float64(s.Count), memo: &hr.memos[0]},
			metricRow{ID: hr.rows[1], Val: s.P50, memo: &hr.memos[1]},
			metricRow{ID: hr.rows[2], Val: s.P95, memo: &hr.memos[2]},
			metricRow{ID: hr.rows[3], Val: s.P99, memo: &hr.memos[3]},
		)
	}
	return out
}

// metricRow is one exported (identity, value) pair with its
// instrument's row memo.
type metricRow struct {
	ID   string
	Val  float64
	memo *rowMemo
}
