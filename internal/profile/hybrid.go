package profile

import (
	"vulcan/internal/pagetable"
)

// Hybrid is Vulcan's default profiler (§3.2, inspired by FlexMem): PEBS
// sampling provides cheap frequency estimates, while an epoch-boundary
// page-table sweep harvests accessed bits to cover the pages sampling
// missed — overcoming "the limitations of sampling-based memory
// tracking" at the cost of the scan. The embedded PEBS sampler records
// accesses, keeps the heat and writes the checkpoint; Hybrid adds only
// the sweep.
type Hybrid struct {
	*PEBS
	table     *pagetable.Replicated
	scanBoost float64
	scanCost  float64

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
	h := &Hybrid{
		PEBS:  NewPEBSWithDecay(sampleRate, decay, seed),
		table: table,
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

// visit handles one accessed or dirty PTE during the epoch sweep:
// backfill pages sampling missed entirely (pages with PEBS-derived heat
// already carry a better frequency signal), then clear A/D bits in
// place so next epoch's bits are fresh. The backfill test reads only
// vp's own heat cell, so recording inline during the walk matches the
// previous two-pass collect-then-record behavior bit for bit.
//
//vulcan:hotpath
func (h *Hybrid) visit(vp pagetable.VPage, p pagetable.PTE) pagetable.PTE {
	if p.Accessed() && h.Heat(vp) == 0 {
		h.record(vp, p.Dirty(), h.scanBoost)
	}
	return p.WithAccessed(false).WithDirty(false)
}

// EndEpoch sweeps accessed bits to backfill sampling misses, then ends
// the PEBS epoch, which ages the heat. The modeled kernel scans every
// mapped PTE, so ScannedPages and the scan cost count the whole
// mapping, while the host walks only the entries with A or D set.
//
//vulcan:hotpath
func (h *Hybrid) EndEpoch() EpochReport {
	h.table.SweepAccessed(h.scanFn)
	rep := h.PEBS.EndEpoch()
	rep.ScannedPages = h.table.Mapped()
	rep.OverheadCycles += float64(rep.ScannedPages) * h.scanCost
	return rep
}
