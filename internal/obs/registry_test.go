package obs

import (
	"io"
	"slices"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// checkIDLists asserts each kind's maintained identity list equals a
// fresh sort of its lookup map, with the map's instrument at every
// index and each histogram's four row names.
func checkIDLists(t *testing.T, r *Registry) {
	t.Helper()
	check := func(kind string, got []string, want []string) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s ids %v, sorted map keys %v", kind, got, want)
		}
	}
	check("gauge", r.gaugeList.ids, sortedKeys(r.gauges))
	check("histogram", r.histoList.ids, sortedKeys(r.histos))
	for i, id := range r.gaugeList.ids {
		if r.gaugeList.vals[i] != r.gauges[id] {
			t.Fatalf("gauge %s: list holds another instrument", id)
		}
	}
	for i, id := range r.histoList.ids {
		hr := r.histoList.vals[i]
		want := [4]string{id + ".count", id + ".p50", id + ".p95", id + ".p99"}
		if hr.h != r.histos[id] || hr.rows != want {
			t.Fatalf("histogram %s: list entry %v, rows %v", id, hr.h, hr.rows)
		}
	}
}

// TestRegistryIDListsStaySorted registers instruments in random orders
// and checks the maintained identity lists, before and after a
// checkpoint round trip.
func TestRegistryIDListsStaySorted(t *testing.T) {
	apps := []string{"memcached", "pagerank", "liblinear", "churn.3", "churn.12", ""}
	names := []string{"fthr", "pages_moved", "fast_pages", "epoch_perf"}
	for seed := uint64(1); seed <= 10; seed++ {
		rng := sim.NewRNG(seed)
		reg := NewRegistry()
		for i := 0; i < 60; i++ {
			name := names[rng.Intn(len(names))]
			var labels []Label
			if app := apps[rng.Intn(len(apps))]; app != "" {
				labels = append(labels, App(app))
			}
			if rng.Intn(2) == 0 {
				labels = append(labels, Tier("fast"))
			}
			if rng.Intn(2) == 0 {
				reg.Gauge(name, labels...).Set(float64(i))
			} else {
				reg.Histogram(name, 0, 1, 10, labels...).Add(float64(i%10) / 10)
			}
		}
		checkIDLists(t, reg)

		e := &checkpoint.Encoder{}
		reg.Snapshot(e)
		back := NewRegistry()
		back.Gauge("stale").Set(1) // Restore replaces what was there
		if err := back.Restore(checkpoint.NewDecoder(e.Bytes())); err != nil {
			t.Fatal(err)
		}
		checkIDLists(t, back)
		// Rows compare by identity and value: each registry keeps its
		// own row memos.
		sameRow := func(a, b metricRow) bool { return a.ID == b.ID && a.Val == b.Val }
		if got, want := back.snapshot(nil), reg.snapshot(nil); !slices.EqualFunc(got, want, sameRow) {
			t.Fatalf("restored rows differ:\n got %v\nwant %v", got, want)
		}
	}
}

// TestStreamingFlushAllocatesNothing pins the streaming metrics flush:
// over a fixed instrument set, after the first flush has sized the
// buffers, FlushEpoch allocates nothing.
func TestStreamingFlushAllocatesNothing(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder()
	r.BindClock(&clock)
	r.StreamTo(nil, NewCSVStream(io.Discard))
	reg := r.Metrics()
	for _, app := range []string{"a", "b", "c"} {
		reg.Gauge("pages_moved", App(app), Tier("fast")).Set(3)
		reg.Gauge("fthr", App(app)).Set(0.125)
		reg.Histogram("epoch_perf", 0, 1, 20, App(app)).Add(0.5)
	}
	moved := reg.Gauge("pages_moved", App("a"), Tier("fast"))
	r.FlushEpoch(0)
	epoch := 1
	allocs := testing.AllocsPerRun(50, func() {
		moved.Set(float64(epoch))
		r.FlushEpoch(epoch)
		epoch++
	})
	if allocs != 0 {
		t.Fatalf("FlushEpoch: %v allocs/run, want 0", allocs)
	}
}
