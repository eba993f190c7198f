package profile

import (
	"vulcan/internal/pagetable"
)

// HintFault is a NUMA-hinting-fault profiler (AutoTiering/TPP/FlexMem
// style): each epoch it "poisons" a rotating window of mapped pages; the
// next access to a poisoned page takes a minor fault, which both reveals
// the access (a strong recency signal) and costs the faulting thread
// real latency — the mechanism's signature drawback.
type HintFault struct {
	heat  *heatStore
	table *pagetable.Replicated

	// poisoned is the active poison window as a paged bitmap; Record
	// probes it on every access, so membership must be a couple of loads.
	poisoned pageBitmap
	cursor   pagetable.VPage
	// windowPages is how many pages are poisoned per epoch.
	windowPages int
	// faultCycles is the latency one hint fault adds to the access.
	faultCycles float64
	// faultBoost is the heat credited per observed fault.
	faultBoost float64

	faultsThisEpoch int //vulcan:nosnap per-epoch scratch, reset by EndEpoch

	// rebuildFn and wrapFn are the window-rebuild callbacks, bound once
	// at construction so EndEpoch passes stored func values instead of
	// allocating closures.
	rebuildFn func(vp pagetable.VPage, p pagetable.PTE) bool //vulcan:nosnap constructor wiring
	wrapFn    func(vp pagetable.VPage, p pagetable.PTE) bool //vulcan:nosnap constructor wiring
	// Window-rebuild scratch, reset by EndEpoch.
	rebuildCount int             //vulcan:nosnap per-epoch scratch
	wrapLimit    pagetable.VPage //vulcan:nosnap per-epoch scratch, cursor at rebuild start
}

// NewHintFault builds a hint-fault profiler poisoning windowPages per
// epoch.
func NewHintFault(table *pagetable.Replicated, windowPages int, faultCycles float64) *HintFault {
	if table == nil {
		panic("profile: HintFault requires a table")
	}
	if windowPages <= 0 {
		panic("profile: HintFault window must be positive")
	}
	h := &HintFault{
		heat:        newHeatStore(DefaultDecay),
		table:       table,
		windowPages: windowPages,
		faultCycles: faultCycles,
		faultBoost:  96,
	}
	h.rebuildFn = h.rebuildVisit
	h.wrapFn = h.wrapVisit
	return h
}

// Name implements Profiler.
func (h *HintFault) Name() string { return "hintfault" }

// Record fires a hint fault when the access touches a poisoned page,
// returning the fault's latency so the system charges it to the thread.
//
//vulcan:hotpath
func (h *HintFault) Record(a Access) float64 {
	if !h.poisoned.clearBit(a.VP) {
		return 0
	}
	h.faultsThisEpoch++
	h.heat.record(a.VP, a.Write, h.faultBoost)
	return h.faultCycles
}

// rebuildVisit poisons one page for the next window during the forward
// (cursor-onward) walk.
//
//vulcan:hotpath
func (h *HintFault) rebuildVisit(vp pagetable.VPage, p pagetable.PTE) bool {
	if h.rebuildCount >= h.windowPages {
		return false
	}
	h.poisoned.set(vp)
	h.rebuildCount++
	h.cursor = vp + 1
	return true
}

// wrapVisit poisons pages below the rebuild-start cursor when the tail of
// the address space came up short of a full window.
//
//vulcan:hotpath
func (h *HintFault) wrapVisit(vp pagetable.VPage, p pagetable.PTE) bool {
	if vp >= h.wrapLimit || h.rebuildCount >= h.windowPages {
		return false
	}
	if h.poisoned.set(vp) {
		h.rebuildCount++
		h.cursor = vp + 1
	}
	return true
}

// EndEpoch rotates the poison window across the address space and ages
// heat.
//
//vulcan:hotpath
func (h *HintFault) EndEpoch() EpochReport {
	rep := EpochReport{
		Faults: h.faultsThisEpoch,
		// Poisoning a PTE is a table write; unpoisoned leftovers from the
		// previous window are also rewritten.
		OverheadCycles: float64(h.windowPages+h.poisoned.count) * 20,
	}
	h.faultsThisEpoch = 0

	// Rebuild the window: walk forward from the cursor, wrapping once.
	// Resuming at the cursor (instead of scanning from page zero and
	// skipping the prefix) keeps the rebuild O(window), not O(RSS).
	h.poisoned.clearAll()
	h.rebuildCount = 0
	h.wrapLimit = h.cursor
	h.table.RangeFrom(h.wrapLimit, h.rebuildFn)
	// Wrap around if the tail of the address space was short.
	if h.rebuildCount < h.windowPages && h.wrapLimit > 0 {
		h.table.Range(h.wrapFn)
	}
	h.heat.endEpoch()
	rep.Tracked = h.heat.tracked()
	return rep
}

// Heat implements Profiler.
func (h *HintFault) Heat(vp pagetable.VPage) float64 { return h.heat.heat(vp) }

// WriteFraction implements Profiler.
func (h *HintFault) WriteFraction(vp pagetable.VPage) float64 { return h.heat.writeFraction(vp) }

// HeatSnapshot implements Profiler.
func (h *HintFault) HeatSnapshot() []PageHeat { return h.heat.snapshot() }

// HeatPages implements Profiler.
func (h *HintFault) HeatPages() []PageHeat { return h.heat.pages() }

// Tracked implements Profiler.
func (h *HintFault) Tracked() int { return h.heat.tracked() }
