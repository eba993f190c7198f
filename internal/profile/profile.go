// Package profile implements the page-access profiling mechanisms the
// policies build (§2.1 of the paper): PEBS-style event sampling,
// NUMA-hint-fault poisoning, and the FlexMem-style hybrid of sampling and
// page-table accessed-bit scanning that Vulcan adopts by default. All
// profilers consume the same access stream and expose per-page heat and
// write-intensity estimates; each has the blind spots of its real
// counterpart (sampling misses, scan staleness, fault overhead).
package profile

import (
	"vulcan/internal/pagetable"
)

// Access is one observed memory reference, as delivered by the workload
// simulation.
type Access struct {
	VP     pagetable.VPage
	Thread int
	Write  bool
	// Fast records which tier served the access (profilers such as PEBS
	// see the distinction through the sampled event's data source).
	Fast bool
}

// PageHeat is one page's profiled state.
type PageHeat struct {
	VP        pagetable.VPage
	Heat      float64
	WriteFrac float64
}

// EpochReport summarizes what a profiler did at an epoch boundary,
// including the overhead it imposed (profiling is not free: Observation
// work in §2.1 — scanning costs CPU, hint faults cost app latency).
type EpochReport struct {
	OverheadCycles float64
	ScannedPages   int
	Faults         int
	// Tracked is the number of pages holding live heat state after the
	// boundary — the profiler's working-set estimate, exported as
	// profile-epoch telemetry.
	Tracked int
}

// Profiler estimates page heat from an access stream.
type Profiler interface {
	// Name identifies the mechanism ("pebs", "hybrid" or "hintfault").
	Name() string
	// Record offers one access to the profiler. Sampling profilers may
	// ignore most calls; Record returns any extra cycles the mechanism
	// imposed on the accessing thread (e.g. a hint fault).
	Record(a Access) float64
	// EndEpoch ages state, performs scans, and reports overhead.
	EndEpoch() EpochReport
	// Heat returns the page's current heat estimate (0 if untracked).
	Heat(vp pagetable.VPage) float64
	// WriteFraction estimates the fraction of writes among the page's
	// observed accesses (0 if untracked).
	WriteFraction(vp pagetable.VPage) float64
	// HeatWord returns the profiled state of the 64 pages from base, a
	// multiple of 64, in one call: the rankers read a page-table mask
	// word's heats through it instead of one Heat call per page.
	HeatWord(base pagetable.VPage) HeatWord
	// HeatSnapshot returns all tracked pages, hottest first (ties broken
	// by ascending page number for determinism). The returned slice is
	// scratch owned by the profiler: it is valid until the next
	// HeatSnapshot or HeatPages call and must not be retained across
	// epochs.
	HeatSnapshot() []PageHeat
	// HeatPages returns all tracked pages like HeatSnapshot but in
	// ascending page order, skipping the hottest-first sort. Rankings
	// re-sort or select by a total-order key (heat, then page number), so
	// they do not depend on it. Same scratch-ownership rules as
	// HeatSnapshot.
	HeatPages() []PageHeat
	// Tracked returns the number of pages with live heat state.
	Tracked() int
}

// DefaultDecay is the per-epoch heat aging factor (Memtis-style halving).
const DefaultDecay = 0.5

// evictBelow drops pages whose heat decayed to noise, bounding memory.
const evictBelow = 1e-3

// WriteIntensiveThreshold is the write fraction above which a page is
// treated as write-intensive by migration policies (Table 1).
const WriteIntensiveThreshold = 0.25

// IsWriteIntensive classifies a page from its profiled write fraction.
func IsWriteIntensive(writeFrac float64) bool {
	return writeFrac > WriteIntensiveThreshold
}
