// Package lab is the deterministic parallel run harness for the
// figure/benchmark pipeline: it fans independent, self-contained
// simulation runs out over a bounded worker pool and commits their
// results in submission order, so all derived output (CSV, trace JSON,
// report text, bench metrics) is byte-identical to a serial run
// regardless of worker count or goroutine scheduling.
//
// The determinism argument has three legs (DESIGN.md §9):
//
//  1. Runs are self-contained. A spec closure owns every piece of
//     mutable state it touches — its own sim.RNG stream (forked or
//     seeded per spec *before* submission), its own obs.Recorder and
//     metrics registry, its own system.System. Nothing mutable crosses
//     a goroutine boundary; the only shared inputs are read-only
//     configuration values.
//  2. Results are keyed by submission index. Each worker writes only
//     results[i] for the indices it drew, so the assembled slice is
//     ordered by submission, not by completion.
//  3. Side effects are committed serially. Collect applies the commit
//     callback for index 0, 1, 2, ... after the parallel phase, so
//     order-sensitive accumulation (floating-point running means,
//     appends, stream writes) reassociates exactly as a serial loop.
//
// This package is the only place in the simulation tree allowed to
// start goroutines or touch sync primitives; the vulcanvet "labonly"
// analyzer enforces that confinement.
package lab

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// defaultWorkers overrides the worker-count default when positive; see
// SetDefaultWorkers.
var defaultWorkers atomic.Int32

// SetDefaultWorkers sets the pool size used when a call passes
// workers <= 0. n <= 0 restores the built-in default (GOMAXPROCS).
// Command-line front ends bind their -parallel flag here once at
// startup; worker count never affects output bytes, only wall clock.
func SetDefaultWorkers(n int) {
	if n < 0 {
		n = 0
	}
	defaultWorkers.Store(int32(n))
}

// DefaultWorkers returns the pool size used when a call passes
// workers <= 0: the SetDefaultWorkers override, or GOMAXPROCS.
func DefaultWorkers() int {
	if n := int(defaultWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// clampWorkers resolves a requested worker count against n tasks:
// non-positive requests take the default, and the pool never exceeds
// the task count.
func clampWorkers(workers, n int) int {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs run(0..n-1) on up to workers goroutines (workers <= 0
// means DefaultWorkers) and returns when all calls have finished. Each
// index is executed exactly once. A panic inside any run is re-raised
// on the caller's goroutine after the pool drains, like a serial loop.
//
// run must be self-contained per index: it may only read shared state,
// never write it. Results belong in per-index slots (see Map).
func ForEach(workers, n int, run func(i int)) {
	if n <= 0 {
		return
	}
	w := clampWorkers(workers, n)
	if w == 1 {
		// Serial fast path: no goroutines, no synchronization, so
		// workers=1 is exactly the pre-lab code path.
		for i := 0; i < n; i++ {
			run(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Bool
		panicVal any
	)
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// First panic wins; the others drain their queues.
					if panicked.CompareAndSwap(false, true) {
						panicVal = r
					}
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
}

// Map runs run(0..n-1) on up to workers goroutines and returns the
// results in submission order: out[i] = run(i), regardless of which
// worker executed i or when it finished.
func Map[R any](workers, n int, run func(i int) R) []R {
	out := make([]R, n)
	ForEach(workers, n, func(i int) {
		out[i] = run(i)
	})
	return out
}

// Collect runs run(0..n-1) in parallel, then applies commit(i, result)
// serially in submission order on the caller's goroutine. Use it when
// results fold into shared accumulators whose outcome depends on
// ordering (running means, CFI trackers, stream writers): the commit
// sequence — and therefore every accumulated bit — matches a serial
// loop exactly.
func Collect[R any](workers, n int, run func(i int) R, commit func(i int, r R)) {
	for i, r := range Map(workers, n, run) {
		commit(i, r)
	}
}
