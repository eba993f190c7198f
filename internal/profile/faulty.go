package profile

import "vulcan/internal/pagetable"

// SampleFaults is the profiler-facing surface of the fault subsystem
// (structurally satisfied by *fault.ProfileFaults; a local interface
// keeps this mechanism layer free of a fault-package dependency). One
// value wraps one app's serial sampling stream.
type SampleFaults interface {
	// BeginEpoch opens epoch-scoped fault state (overflow windows).
	BeginEpoch(epoch uint64)
	// DropSample reports whether the next profiler sample is lost.
	DropSample() bool
	// EndEpoch closes the epoch: the surviving-sample confidence (1 =
	// nothing lost), whether the ring buffer overflowed, and how many
	// samples were dropped.
	EndEpoch() (confidence float64, overflowed bool, dropped uint64)
}

// Faulty decorates a Profiler with injected sample loss: dropped
// samples never reach the inner profiler (the heat estimate starves,
// exactly like real PEBS throughput loss), and the per-epoch confidence
// lets the system decide when the profile is too starved to act on.
type Faulty struct {
	inner  Profiler
	faults SampleFaults
	epoch  uint64

	confidence float64
	overflowed bool
	dropped    uint64
}

// NewFaulty wraps inner with the given fault stream. faults must be
// non-nil (callers with no fault plan should use inner directly).
func NewFaulty(inner Profiler, faults SampleFaults) *Faulty {
	if inner == nil || faults == nil {
		panic("profile: NewFaulty requires a profiler and a fault stream")
	}
	f := &Faulty{inner: inner, faults: faults, confidence: 1}
	f.faults.BeginEpoch(0)
	return f
}

// Name implements Profiler.
func (f *Faulty) Name() string { return f.inner.Name() }

// Record implements Profiler: a dropped sample costs the thread nothing
// (the hardware simply never delivered it) and is invisible to the
// inner profiler.
//
//vulcan:hotpath
func (f *Faulty) Record(a Access) float64 {
	if f.faults.DropSample() {
		return 0
	}
	return f.inner.Record(a)
}

// EndEpoch implements Profiler: it closes the fault stream's epoch,
// latches the confidence for Confidence, and opens the next epoch.
func (f *Faulty) EndEpoch() EpochReport {
	f.confidence, f.overflowed, f.dropped = f.faults.EndEpoch()
	f.epoch++
	f.faults.BeginEpoch(f.epoch)
	return f.inner.EndEpoch()
}

// Confidence returns the fraction of this epoch's samples that survived
// injection (1 when nothing was lost); valid after EndEpoch.
func (f *Faulty) Confidence() float64 { return f.confidence }

// Overflowed reports whether the closed epoch hit a ring-buffer
// overflow window.
func (f *Faulty) Overflowed() bool { return f.overflowed }

// Dropped returns how many samples the closed epoch lost.
func (f *Faulty) Dropped() uint64 { return f.dropped }

// Heat implements Profiler.
func (f *Faulty) Heat(vp pagetable.VPage) float64 { return f.inner.Heat(vp) }

// WriteFraction implements Profiler.
func (f *Faulty) WriteFraction(vp pagetable.VPage) float64 { return f.inner.WriteFraction(vp) }

// HeatSnapshot implements Profiler.
func (f *Faulty) HeatSnapshot() []PageHeat { return f.inner.HeatSnapshot() }

// HeatPages implements Profiler.
func (f *Faulty) HeatPages() []PageHeat { return f.inner.HeatPages() }

// Tracked implements Profiler.
func (f *Faulty) Tracked() int { return f.inner.Tracked() }
