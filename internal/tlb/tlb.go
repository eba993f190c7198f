// Package tlb models per-CPU translation lookaside buffers. The model is
// a direct-mapped tag array — deliberately simple so that workload
// simulation can evaluate millions of accesses cheaply — but it captures
// the two properties the paper's mechanisms depend on: bounded reach
// (misses force page walks whose cost the machine model charges) and
// invalidation (shootdowns evict translations and the next access pays a
// walk).
package tlb

import (
	"fmt"

	"vulcan/internal/pagetable"
)

// DefaultEntries approximates a modern L2 STLB (e.g. Ice Lake: 2048
// 4KiB entries).
const DefaultEntries = 2048

// Stats are cumulative TLB counters.
type Stats struct {
	Hits          uint64
	Misses        uint64
	Invalidations uint64 // entries actually evicted by Invalidate
	// DelayedAcks counts shootdown IPIs whose acknowledgment was
	// delayed by an injected fault (internal/fault's IPIDelay kind);
	// always 0 on a well-behaved substrate.
	DelayedAcks uint64
}

// Merge returns the element-wise sum of two counter sets — used to
// aggregate a process's per-thread TLBs into one telemetry view.
func (s Stats) Merge(o Stats) Stats {
	return Stats{
		Hits:          s.Hits + o.Hits,
		Misses:        s.Misses + o.Misses,
		Invalidations: s.Invalidations + o.Invalidations,
		DelayedAcks:   s.DelayedAcks + o.DelayedAcks,
	}
}

// HitRate returns hits/(hits+misses), or 0 for an unused TLB.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// TLB is a single hardware translation cache (one per simulated CPU or
// thread context).
type TLB struct {
	tags  []uint64 // vp+1; 0 means empty
	mask  uint64
	stats Stats
}

// New builds a TLB with at least the requested number of entries
// (rounded up to a power of two).
func New(entries int) *TLB {
	if entries <= 0 {
		panic(fmt.Sprintf("tlb: non-positive entry count %d", entries))
	}
	size := 1
	for size < entries {
		size <<= 1
	}
	return &TLB{tags: make([]uint64, size), mask: uint64(size - 1)}
}

func (t *TLB) slot(vp pagetable.VPage) uint64 {
	// Fibonacci hashing spreads adjacent vpages across the array.
	return (uint64(vp) * 0x9E3779B97F4A7C15 >> 32) & t.mask
}

// Access looks vp up, inserting it on miss, and reports whether it hit.
func (t *TLB) Access(vp pagetable.VPage) bool {
	s := t.slot(vp)
	if t.tags[s] == uint64(vp)+1 {
		t.stats.Hits++
		return true
	}
	t.stats.Misses++
	t.tags[s] = uint64(vp) + 1
	return false
}

// Invalidate removes vp's translation if present, reporting whether an
// entry was evicted. This is the per-page invalidation a shootdown IPI
// performs on its target CPU.
func (t *TLB) Invalidate(vp pagetable.VPage) bool {
	s := t.slot(vp)
	if t.tags[s] == uint64(vp)+1 {
		t.tags[s] = 0
		t.stats.Invalidations++
		return true
	}
	return false
}

// Stats returns the cumulative counters.
func (t *TLB) Stats() Stats { return t.stats }

// NoteDelayedAck records one shootdown IPI whose acknowledgment was
// delayed by an injected fault (the cycle cost is charged by the
// migration engine; this only keeps the counter visible per thread).
func (t *TLB) NoteDelayedAck() { t.stats.DelayedAcks++ }
