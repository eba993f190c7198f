package profile

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// These tests pin the //vulcan:hotpath contract for the per-access
// Record implementations: after warm-up, recording an access must not
// allocate. Record runs once per simulated memory access, so a single
// stray allocation here dominates the whole simulation's garbage.

func warmTable(t *testing.T, pages int) *pagetable.Replicated {
	t.Helper()
	tbl := pagetable.NewReplicated(1)
	for vp := pagetable.VPage(0); vp < pagetable.VPage(pages); vp++ {
		if err := tbl.Map(0, vp, pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: uint32(vp)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func pinRecord(t *testing.T, name string, p Profiler, a Access) {
	t.Helper()
	// Warm-up inserts the page into the heat map so the measured runs
	// exercise the steady state (existing-key update, no map growth).
	for i := 0; i < 8; i++ {
		p.Record(a)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		p.Record(a)
	}); allocs != 0 {
		t.Errorf("%s.Record allocated %.0f objects/op in steady state, want 0", name, allocs)
	}
}

func TestPEBSRecordZeroAlloc(t *testing.T) {
	// sampleRate 1 makes every access take the sampling path, so the
	// measurement covers the heat-map update, not just the rng draw.
	pinRecord(t, "PEBS", NewPEBSWithDecay(1, DefaultDecay, 42), Access{VP: 3, Write: true, Fast: true})
}

func TestHybridRecordZeroAlloc(t *testing.T) {
	tbl := warmTable(t, 8)
	pinRecord(t, "Hybrid", NewHybrid(tbl, 1, DefaultDecay, 42), Access{VP: 3, Write: true, Fast: true})
}

func TestHintFaultRecordZeroAlloc(t *testing.T) {
	tbl := warmTable(t, 8)
	h := NewHintFault(tbl, 4, 1000)

	// Miss path: the page is not poisoned, Record is a lone bitmap probe.
	if allocs := testing.AllocsPerRun(200, func() {
		h.Record(Access{VP: 3, Fast: true})
	}); allocs != 0 {
		t.Errorf("HintFault.Record (unpoisoned) allocated %.0f objects/op, want 0", allocs)
	}

	// Hit path: consume the poison, credit heat, charge the fault. The
	// poison is re-armed each iteration; re-setting a bit in an already
	// allocated bitmap chunk must not allocate.
	h.poisoned.set(3)
	h.Record(Access{VP: 3, Write: true, Fast: true}) // warm the heat entry
	if allocs := testing.AllocsPerRun(200, func() {
		h.poisoned.set(3)
		h.Record(Access{VP: 3, Write: true, Fast: true})
	}); allocs != 0 {
		t.Errorf("HintFault.Record (poisoned) allocated %.0f objects/op, want 0", allocs)
	}
}

func TestHeatStoreRecordZeroAlloc(t *testing.T) {
	// The store itself, below any profiler: steady-state updates of an
	// existing cell must not allocate.
	h := newHeatStore(0.5)
	for i := 0; i < 8; i++ {
		h.record(3, i%2 == 0, 1)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		h.record(3, true, 1)
	}); allocs != 0 {
		t.Errorf("heatStore.record allocated %.0f objects/op in steady state, want 0", allocs)
	}
}

func TestHeatStoreEndEpochZeroAlloc(t *testing.T) {
	// The decay sweep allocates nothing. Pages are spread across several
	// chunks and recorded hot enough to survive all measured epochs
	// (1e6 * 0.999^201 stays far above evictBelow), so the measurement
	// covers the survivor path, not just evictions.
	h := newHeatStore(0.999)
	for vp := pagetable.VPage(0); vp < 64; vp++ {
		h.record(vp*(chunkPages/4+1), vp%3 == 0, 1e6)
	}
	h.endEpoch()
	if allocs := testing.AllocsPerRun(200, func() {
		h.endEpoch()
	}); allocs != 0 {
		t.Errorf("heatStore.endEpoch allocated %.0f objects/op in steady state, want 0", allocs)
	}
	if h.Tracked() != 64 {
		t.Fatalf("tracked = %d after measured epochs, want 64 (pages must survive for the pin to mean anything)", h.Tracked())
	}
}

func TestPEBSEpochCycleZeroAlloc(t *testing.T) {
	// A full profiler epoch cycle at steady state: sampled records
	// keeping the pages warm, then the decay sweep. Record and EndEpoch
	// together are the whole per-epoch profiling cost, so this is the
	// end-to-end pin the figure benchmarks rely on.
	p := NewPEBSWithDecay(1, 0.9, 42)
	for vp := pagetable.VPage(0); vp < 16; vp++ {
		p.Record(Access{VP: vp * 100, Write: vp%2 == 0, Fast: true})
	}
	p.EndEpoch()
	if allocs := testing.AllocsPerRun(200, func() {
		for vp := pagetable.VPage(0); vp < 16; vp++ {
			p.Record(Access{VP: vp * 100, Write: vp%2 == 0, Fast: true})
		}
		p.EndEpoch()
	}); allocs != 0 {
		t.Errorf("PEBS Record+EndEpoch cycle allocated %.0f objects/op in steady state, want 0", allocs)
	}
}

func TestHintFaultEndEpochZeroAlloc(t *testing.T) {
	// The window rebuild over three leaves, once with a window the
	// forward walk fills in every measured epoch and once with one a page
	// short of the mapping, so every epoch after the first wraps. The
	// first epoch allocates the poison bitmap's chunk; every later
	// rebuild must reuse it.
	const pages = 3*pagetable.EntriesPerTable - 37
	for _, tc := range []struct {
		name   string
		window int
	}{{"forward", 10}, {"wrap", pages - 1}} {
		h := NewHintFault(warmTable(t, pages), tc.window, 1000)
		h.EndEpoch()
		wrapped := 0
		if allocs := testing.AllocsPerRun(50, func() {
			start := h.cursor
			h.Record(Access{VP: start, Write: true})
			h.EndEpoch()
			if h.cursor <= start {
				wrapped++
			}
		}); allocs != 0 {
			t.Errorf("HintFault.EndEpoch (%s) allocated %.0f objects/op in steady state, want 0", tc.name, allocs)
		}
		if (wrapped > 0) != (tc.name == "wrap") {
			t.Errorf("%s: %d of the measured rebuilds wrapped", tc.name, wrapped)
		}
	}
}

func TestHybridEndEpochZeroAlloc(t *testing.T) {
	// The A/D harvest with scan backfill and the decay sweep: touched
	// pages get backfilled heat and their bits cleared every epoch.
	tbl := warmTable(t, 2*pagetable.EntriesPerTable)
	h := NewHybrid(tbl, 1_000_000, DefaultDecay, 42)
	touchAll := func() {
		for vp := pagetable.VPage(0); vp < 2*pagetable.EntriesPerTable; vp += 5 {
			tbl.Touch(0, vp, vp%2 == 0)
		}
	}
	touchAll()
	h.EndEpoch()
	if allocs := testing.AllocsPerRun(50, func() {
		touchAll()
		h.EndEpoch()
	}); allocs != 0 {
		t.Errorf("Hybrid.EndEpoch allocated %.0f objects/op in steady state, want 0", allocs)
	}
	if h.Tracked() == 0 {
		t.Fatal("no page tracked: the backfill path went unmeasured")
	}
}

func TestHeatStorePagesAfterMutationZeroAlloc(t *testing.T) {
	// HeatPages sweeps the live masks into snapScratch; once it has
	// grown, a sweep after a mutation must reuse it.
	h := newHeatStore(DefaultDecay)
	for vp := pagetable.VPage(0); vp < 64; vp++ {
		h.record(vp*(chunkPages/4+1), vp%3 == 0, 1)
	}
	h.HeatPages()
	if allocs := testing.AllocsPerRun(200, func() {
		h.record(3*(chunkPages/4+1), true, 1)
		h.HeatPages()
	}); allocs != 0 {
		t.Errorf("heatStore.HeatPages after a record allocated %.0f objects/op, want 0", allocs)
	}
}

func TestHeatWordZeroAlloc(t *testing.T) {
	// The rankers call HeatWord through the Profiler interface once per
	// mask word; the word is returned by value and must not escape.
	var p Profiler = NewPEBSWithDecay(1, DefaultDecay, 42)
	for vp := pagetable.VPage(0); vp < 64; vp++ {
		p.Record(Access{VP: vp * 7, Write: vp%2 == 0})
	}
	sum := 0.0
	if allocs := testing.AllocsPerRun(200, func() {
		for base := pagetable.VPage(0); base < 8*64; base += 64 {
			w := p.HeatWord(base)
			sum += w.Heat(3) + w.WriteFrac(3)
		}
	}); allocs != 0 {
		t.Errorf("HeatWord allocated %.0f objects/op, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("no heat read: the pin measured only empty words")
	}
}
