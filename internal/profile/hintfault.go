package profile

import (
	"math/bits"

	"vulcan/internal/pagetable"
)

// HintFault is a NUMA-hinting-fault profiler (AutoTiering/TPP/FlexMem
// style): each epoch it "poisons" a rotating window of mapped pages; the
// next access to a poisoned page takes a minor fault, which both reveals
// the access (a strong recency signal) and costs the faulting thread
// real latency — the mechanism's signature drawback. The embedded heat
// store answers the Profiler queries.
type HintFault struct {
	*heatStore
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

	// poisonFn is the window-rebuild callback, bound once at
	// construction so EndEpoch passes a stored func value instead of
	// allocating a closure.
	poisonFn func(base pagetable.VPage, word uint64) bool //vulcan:nosnap constructor wiring
	// Window-rebuild scratch, reset by EndEpoch.
	rebuildCount int             //vulcan:nosnap per-epoch scratch
	walkEnd      pagetable.VPage //vulcan:nosnap per-epoch scratch, the first page the current walk stops at
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
		heatStore:   newHeatStore(DefaultDecay),
		table:       table,
		windowPages: windowPages,
		faultCycles: faultCycles,
		faultBoost:  96,
	}
	h.poisonFn = h.poisonWord
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
	h.record(a.VP, a.Write, h.faultBoost)
	return h.faultCycles
}

// poisonWord poisons the lowest present pages of one present-mask word
// below walkEnd that are not poisoned yet, up to the window's remaining
// room, and moves the cursor past the last one.
//
//vulcan:hotpath
func (h *HintFault) poisonWord(base pagetable.VPage, word uint64) bool {
	if base >= h.walkEnd {
		return false
	}
	if h.walkEnd-base < 64 {
		word &= 1<<(h.walkEnd-base) - 1
	}
	if added := h.poisoned.orWord(base, word, h.windowPages-h.rebuildCount); added != 0 {
		h.rebuildCount += bits.OnesCount64(added)
		h.cursor = base + pagetable.VPage(64-bits.LeadingZeros64(added))
	}
	return h.rebuildCount < h.windowPages
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
	// skipping the prefix) keeps the rebuild O(window), not O(RSS), and
	// the walk takes the present pages 64 at a time.
	h.poisoned.clearAll()
	h.rebuildCount = 0
	start := h.cursor
	h.walkEnd = pagetable.MaxVPage + 1
	h.table.PresentFrom(start, h.poisonFn)
	// Wrap around if the tail of the address space was short.
	if h.rebuildCount < h.windowPages && start > 0 {
		h.walkEnd = start
		h.table.PresentFrom(0, h.poisonFn)
	}
	h.endEpoch()
	rep.Tracked = h.Tracked()
	return rep
}
