package profile

import (
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// Hybrid is Vulcan's default profiler (§3.2, inspired by FlexMem): PEBS
// sampling provides cheap frequency estimates, while an epoch-boundary
// page-table sweep harvests accessed bits to cover the pages sampling
// missed — overcoming "the limitations of sampling-based memory
// tracking" at the cost of the scan.
type Hybrid struct {
	heat  *heatStore
	table *pagetable.Replicated
	rng   *sim.RNG

	sampleRate   int
	sampleWeight float64
	scanBoost    float64
	scanCost     float64
	samples      uint64 //vulcan:nosnap per-epoch scratch, reset by EndEpoch

	// scanFn is the epoch-sweep callback, bound once at construction so
	// EndEpoch passes a stored func value instead of allocating a closure.
	scanFn func(vp pagetable.VPage, p pagetable.PTE) pagetable.PTE //vulcan:nosnap constructor wiring
}

// NewHybrid builds the hybrid profiler over table, sampling one access
// in sampleRate. decay is the per-epoch heat aging factor: a slow decay
// (e.g. 0.9) makes steadily re-accessed pages outrank one-shot streaming
// spikes, which is what lets the migration policy distinguish genuine
// working sets from scan traffic.
func NewHybrid(table *pagetable.Replicated, sampleRate int, decay float64, seed uint64) *Hybrid {
	if table == nil {
		panic("profile: Hybrid requires a table")
	}
	if sampleRate <= 0 {
		panic("profile: Hybrid sample rate must be positive")
	}
	h := &Hybrid{
		heat:         newHeatStore(decay),
		table:        table,
		rng:          sim.NewRNG(seed),
		sampleRate:   sampleRate,
		sampleWeight: float64(sampleRate),
		// The scan backfill is a coverage signal for pages sampling never
		// saw; it must stay below one sample's weight or it would swamp
		// the PEBS frequency ranking.
		scanBoost: float64(sampleRate) / 2,
		scanCost:  15,
	}
	h.scanFn = h.visit
	return h
}

// Name implements Profiler.
func (h *Hybrid) Name() string { return "hybrid" }

// Record samples like PEBS; no inline cost.
//
//vulcan:hotpath
func (h *Hybrid) Record(a Access) float64 {
	if h.rng.Intn(h.sampleRate) != 0 {
		return 0
	}
	h.samples++
	h.heat.record(a.VP, a.Write, h.sampleWeight)
	return 0
}

// visit handles one accessed or dirty PTE during the epoch sweep:
// backfill pages sampling missed entirely (pages with PEBS-derived heat
// already carry a better frequency signal), then clear A/D bits in
// place so next epoch's bits are fresh. The backfill test reads only
// vp's own heat cell, so recording inline during the walk matches the
// previous two-pass collect-then-record behavior bit for bit.
//
//vulcan:hotpath
func (h *Hybrid) visit(vp pagetable.VPage, p pagetable.PTE) pagetable.PTE {
	if p.Accessed() && h.heat.heat(vp) == 0 {
		h.heat.record(vp, p.Dirty(), h.scanBoost)
	}
	return p.WithAccessed(false).WithDirty(false)
}

// EndEpoch sweeps accessed bits to backfill sampling misses, then ages.
// The modeled kernel scans every mapped PTE, so ScannedPages and the
// scan cost count the whole mapping, while the host walks only the
// entries with A or D set.
//
//vulcan:hotpath
func (h *Hybrid) EndEpoch() EpochReport {
	var rep EpochReport
	rep.OverheadCycles = float64(h.samples) * 40
	h.samples = 0

	h.table.SweepAccessed(h.scanFn)
	rep.ScannedPages = h.table.Mapped()
	rep.OverheadCycles += float64(rep.ScannedPages) * h.scanCost
	h.heat.endEpoch()
	rep.Tracked = h.heat.tracked()
	return rep
}

// Heat implements Profiler.
func (h *Hybrid) Heat(vp pagetable.VPage) float64 { return h.heat.heat(vp) }

// WriteFraction implements Profiler.
func (h *Hybrid) WriteFraction(vp pagetable.VPage) float64 { return h.heat.writeFraction(vp) }

// HeatWord implements Profiler.
func (h *Hybrid) HeatWord(base pagetable.VPage) HeatWord { return h.heat.word(base) }

// HeatSnapshot implements Profiler.
func (h *Hybrid) HeatSnapshot() []PageHeat { return h.heat.snapshot() }

// HeatPages implements Profiler.
func (h *Hybrid) HeatPages() []PageHeat { return h.heat.pages() }

// Tracked implements Profiler.
func (h *Hybrid) Tracked() int { return h.heat.tracked() }
