package profile

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// feed drives n accesses to vp through p.
func feed(p Profiler, vp pagetable.VPage, n int, write bool) {
	for i := 0; i < n; i++ {
		p.Record(Access{VP: vp, Write: write})
	}
}

func TestHeatStoreDecayAndEviction(t *testing.T) {
	h := newHeatStore(0.5)
	h.record(1, false, 8)
	h.endEpoch()
	if got := h.Heat(1); got != 4 {
		t.Fatalf("heat after one epoch = %v, want 4", got)
	}
	// Decay to below evictBelow drops the page.
	for i := 0; i < 20; i++ {
		h.endEpoch()
	}
	if h.Tracked() != 0 {
		t.Fatalf("tracked = %d after full decay", h.Tracked())
	}
}

func TestHeatStoreWriteFraction(t *testing.T) {
	h := newHeatStore(0.5)
	h.record(1, true, 1)
	h.record(1, false, 1)
	h.record(1, false, 1)
	h.record(1, false, 1)
	if wf := h.WriteFraction(1); wf != 0.25 {
		t.Fatalf("writeFraction = %v, want 0.25", wf)
	}
	if h.WriteFraction(99) != 0 {
		t.Fatal("untracked writeFraction nonzero")
	}
}

func TestHeatStoreSnapshotOrdering(t *testing.T) {
	h := newHeatStore(0.5)
	h.record(3, false, 1)
	h.record(1, false, 5)
	h.record(2, false, 5)
	snap := h.HeatSnapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot size = %d", len(snap))
	}
	if snap[0].VP != 1 || snap[1].VP != 2 || snap[2].VP != 3 {
		t.Fatalf("ordering wrong: %v", snap)
	}
	// The sorted view must not leak into the unordered one: HeatPages
	// stays ascending after a snapshot, before and after an epoch.
	h.record(3, false, 9) // now the hottest, out of page order
	for round := 0; round < 2; round++ {
		h.HeatSnapshot()
		ph := h.HeatPages()
		for i := 1; i < len(ph); i++ {
			if ph[i-1].VP >= ph[i].VP {
				t.Fatalf("round %d: pages not ascending: %v", round, ph)
			}
		}
		h.endEpoch()
	}
}

func TestHeatStoreBadDecayPanics(t *testing.T) {
	for _, d := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v did not panic", d)
				}
			}()
			newHeatStore(d)
		}()
	}
}

func TestIsWriteIntensive(t *testing.T) {
	if IsWriteIntensive(0.1) {
		t.Fatal("0.1 classified write-intensive")
	}
	if !IsWriteIntensive(0.5) {
		t.Fatal("0.5 not classified write-intensive")
	}
}

func TestPEBSUnbiasedHeat(t *testing.T) {
	p := NewPEBSWithDecay(100, DefaultDecay, 1)
	feed(p, 7, 100_000, false)
	// Expected heat ≈ 100000 regardless of sampling (weight corrects).
	if h := p.Heat(7); h < 60_000 || h > 140_000 {
		t.Fatalf("PEBS heat = %v, want ~100000", h)
	}
}

func TestPEBSRanksBySampledFrequency(t *testing.T) {
	p := NewPEBSWithDecay(10, DefaultDecay, 2)
	feed(p, 1, 50_000, false)
	feed(p, 2, 5_000, false)
	feed(p, 3, 500, false)
	snap := p.HeatSnapshot()
	if len(snap) < 2 || snap[0].VP != 1 {
		t.Fatalf("hottest page wrong: %v", snap)
	}
	if p.Heat(1) <= p.Heat(2) {
		t.Fatal("heat ordering wrong")
	}
}

func TestPEBSMissesColdPages(t *testing.T) {
	// A page touched once in a 1/199 sampler is almost never seen —
	// the mechanism's false-negative behaviour.
	p := NewPEBSWithDecay(DefaultPEBSSampleRate, DefaultDecay, 3)
	missed := 0
	for vp := pagetable.VPage(0); vp < 100; vp++ {
		p.Record(Access{VP: vp})
		if p.Heat(vp) == 0 {
			missed++
		}
	}
	if missed < 80 {
		t.Fatalf("only %d/100 single-touch pages missed; sampler too eager", missed)
	}
}

func TestPEBSEpochReport(t *testing.T) {
	p := NewPEBSWithDecay(1, DefaultDecay, 4) // sample everything
	feed(p, 1, 10, false)
	rep := p.EndEpoch()
	if rep.OverheadCycles <= 0 {
		t.Fatal("PEBS drain overhead missing")
	}
	if rep.Faults != 0 || rep.ScannedPages != 0 {
		t.Fatalf("unexpected report: %+v", rep)
	}
}

func TestPEBSValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPEBSWithDecay(0) did not panic")
		}
	}()
	NewPEBSWithDecay(0, DefaultDecay, 1)
}

// buildTable makes a table with n mapped pages and returns it.
func buildTable(t *testing.T, n int) *pagetable.Replicated {
	t.Helper()
	tbl := pagetable.NewReplicated(1)
	for vp := pagetable.VPage(0); vp < pagetable.VPage(n); vp++ {
		err := tbl.Map(0, vp, pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: uint32(vp)}, 0))
		if err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func touch(tbl *pagetable.Replicated, vp pagetable.VPage, write bool) {
	tbl.Touch(0, vp, write)
}

func TestScanOverheadScalesWithPages(t *testing.T) {
	// Hybrid's epoch sweep visits every mapped PTE. With no samples taken
	// its overhead is the sweep alone, so it grows in proportion to the
	// table.
	small := NewHybrid(buildTable(t, 8), 10, DefaultDecay, 1).EndEpoch()
	big := NewHybrid(buildTable(t, 800), 10, DefaultDecay, 1).EndEpoch()
	if small.ScannedPages != 8 || big.ScannedPages != 800 {
		t.Fatalf("scanned %d and %d pages, want 8 and 800", small.ScannedPages, big.ScannedPages)
	}
	if small.OverheadCycles <= 0 || big.OverheadCycles != 100*small.OverheadCycles {
		t.Fatalf("scan overhead %v for 8 pages, %v for 800: not proportional to table size",
			small.OverheadCycles, big.OverheadCycles)
	}
}

func TestHintFaultPoisonAndFire(t *testing.T) {
	tbl := buildTable(t, 8)
	h := NewHintFault(tbl, 4, 2500)
	h.EndEpoch() // establish the first poison window
	if h.poisoned.count != 4 {
		t.Fatalf("poisoned = %d, want 4", h.poisoned.count)
	}
	// First access to a poisoned page faults and is charged.
	cost := h.Record(Access{VP: 0})
	if cost != 2500 {
		t.Fatalf("fault cost = %v, want 2500", cost)
	}
	if h.Heat(0) <= 0 {
		t.Fatal("fault did not credit heat")
	}
	// Second access: poison consumed, no fault.
	if c := h.Record(Access{VP: 0}); c != 0 {
		t.Fatalf("second access cost = %v, want 0", c)
	}
	rep := h.EndEpoch()
	if rep.Faults != 1 {
		t.Fatalf("epoch faults = %d, want 1", rep.Faults)
	}
}

func TestHintFaultWindowRotates(t *testing.T) {
	tbl := buildTable(t, 8)
	h := NewHintFault(tbl, 4, 2500)
	h.EndEpoch()
	first := make(map[pagetable.VPage]bool)
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		if h.Record(Access{VP: vp}) > 0 {
			first[vp] = true
		}
	}
	h.EndEpoch()
	second := make(map[pagetable.VPage]bool)
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		if h.Record(Access{VP: vp}) > 0 {
			second[vp] = true
		}
	}
	if len(first) != 4 || len(second) != 4 {
		t.Fatalf("window sizes %d/%d", len(first), len(second))
	}
	for vp := range second {
		if first[vp] {
			t.Fatalf("window did not rotate: page %d poisoned twice", vp)
		}
	}
}

func TestHintFaultWrapsAround(t *testing.T) {
	tbl := buildTable(t, 6)
	h := NewHintFault(tbl, 4, 100)
	h.EndEpoch() // poisons 0..3
	h.EndEpoch() // poisons 4,5 + wraps to 0,1
	if h.poisoned.count != 4 {
		t.Fatalf("wrapped window = %d, want 4", h.poisoned.count)
	}
	if c := h.Record(Access{VP: 5}); c == 0 {
		t.Fatal("page 5 not poisoned after wrap")
	}
	if c := h.Record(Access{VP: 0}); c == 0 {
		t.Fatal("page 0 not poisoned after wrap")
	}
}

func TestHintFaultValidation(t *testing.T) {
	tbl := buildTable(t, 2)
	for name, fn := range map[string]func(){
		"nil table":   func() { NewHintFault(nil, 1, 0) },
		"zero window": func() { NewHintFault(tbl, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHybridBackfillsSamplingMisses(t *testing.T) {
	tbl := buildTable(t, 64)
	h := NewHybrid(tbl, 1_000_000, DefaultDecay, 5) // sampling effectively blind
	// Touch pages through the table (accessed bits) without samples.
	for vp := pagetable.VPage(0); vp < 10; vp++ {
		touch(tbl, vp, vp%2 == 0)
	}
	h.EndEpoch()
	for vp := pagetable.VPage(0); vp < 10; vp++ {
		if h.Heat(vp) == 0 {
			t.Fatalf("hybrid missed scanned page %d", vp)
		}
	}
	if h.Heat(20) != 0 {
		t.Fatal("hybrid invented heat for untouched page")
	}
}

func TestHybridPrefersSampleSignal(t *testing.T) {
	tbl := buildTable(t, 4)
	h := NewHybrid(tbl, 1, DefaultDecay, 6) // sample everything
	feed(h, 0, 1000, false)
	touch(tbl, 0, false)
	touch(tbl, 1, false)
	h.EndEpoch()
	if h.Heat(0) <= h.Heat(1) {
		t.Fatalf("frequency signal lost: heat(0)=%v heat(1)=%v", h.Heat(0), h.Heat(1))
	}
}

func TestHybridClearsBits(t *testing.T) {
	tbl := buildTable(t, 4)
	h := NewHybrid(tbl, 10, DefaultDecay, 7)
	touch(tbl, 2, true)
	h.EndEpoch()
	p, _ := tbl.Lookup(2)
	if p.Accessed() || p.Dirty() {
		t.Fatal("hybrid left A/D bits set")
	}
}

func TestHybridValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"nil table": func() { NewHybrid(nil, 10, DefaultDecay, 1) },
		"bad rate":  func() { NewHybrid(buildTable(t, 1), 0, DefaultDecay, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestProfilerNames(t *testing.T) {
	tbl := buildTable(t, 1)
	for _, tc := range []struct {
		p    Profiler
		want string
	}{
		{NewPEBSWithDecay(10, DefaultDecay, 1), "pebs"},
		{NewHintFault(tbl, 1, 0), "hintfault"},
		{NewHybrid(tbl, 10, DefaultDecay, 1), "hybrid"},
	} {
		if tc.p.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.p.Name(), tc.want)
		}
	}
}
