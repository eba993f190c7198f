// Package mem models the physical side of a tiered memory system: memory
// tiers with distinct capacity/latency/bandwidth characteristics, physical
// frames, and a frame allocator with watermark accounting.
//
// The default configuration mirrors the paper's testbed (§5.1): a fast
// tier with 70ns unloaded latency (local DDR4) and a slow tier with 162ns
// unloaded latency (CXL-like remote NUMA emulation), with capacities at
// 1/64 of the paper's 32GB/256GB to keep simulations laptop-sized while
// preserving every capacity ratio the policies depend on.
package mem

import (
	"fmt"

	"vulcan/internal/sim"
)

// PageSize is the base page size in bytes (4 KiB), matching the paper's
// base-page migration granularity.
const PageSize = 4096

// TierID identifies a memory tier.
type TierID uint8

// The two tiers of the paper's setup. NumTiers bounds arrays indexed by
// TierID.
const (
	TierFast TierID = iota // local DRAM
	TierSlow               // CXL-like far memory
	NumTiers
)

// String returns the conventional name of the tier.
func (t TierID) String() string {
	switch t {
	case TierFast:
		return "fast"
	case TierSlow:
		return "slow"
	default:
		return fmt.Sprintf("tier(%d)", uint8(t))
	}
}

// Valid reports whether t names a real tier.
func (t TierID) Valid() bool { return t < NumTiers }

// Frame names a physical page frame: a tier plus a frame index within it.
type Frame struct {
	Tier  TierID
	Index uint32
}

// String renders the frame as "fast:123".
func (f Frame) String() string { return fmt.Sprintf("%s:%d", f.Tier, f.Index) }

// NilFrame is the sentinel "no frame" value (an invalid tier).
var NilFrame = Frame{Tier: NumTiers}

// IsNil reports whether f is the sentinel non-frame.
func (f Frame) IsNil() bool { return f.Tier >= NumTiers }

// TierConfig describes one memory tier.
type TierConfig struct {
	Name            string
	CapacityPages   int          // number of 4KiB frames
	UnloadedLatency sim.Duration // idle access latency
	BandwidthGBs    float64      // peak sustainable bandwidth, GB/s
}

// Tier is one memory tier with a frame free list and usage accounting.
type Tier struct {
	cfg  TierConfig
	id   TierID
	free []uint32 // LIFO free stack
	used int
}

// NewTier builds a tier with all frames free.
func NewTier(id TierID, cfg TierConfig) *Tier {
	if cfg.CapacityPages <= 0 {
		panic(fmt.Sprintf("mem: tier %q with capacity %d", cfg.Name, cfg.CapacityPages))
	}
	t := &Tier{cfg: cfg, id: id, free: make([]uint32, cfg.CapacityPages)}
	// Hand out low frame indices first: free is a LIFO stack, so push in
	// reverse order.
	for i := range t.free {
		t.free[i] = uint32(cfg.CapacityPages - 1 - i)
	}
	return t
}

// Config returns the tier's configuration.
func (t *Tier) Config() TierConfig { return t.cfg }

// Capacity returns the tier's total frame count.
func (t *Tier) Capacity() int { return t.cfg.CapacityPages }

// Used returns the number of allocated frames.
func (t *Tier) Used() int { return t.used }

// FreePages returns the number of free frames.
func (t *Tier) FreePages() int { return len(t.free) }

// EachFree calls fn with every frame index on the free stack, bottom
// first.
func (t *Tier) EachFree(fn func(idx uint32)) {
	for _, idx := range t.free {
		fn(idx)
	}
}

// Alloc removes a frame from the free list. ok is false when the tier is
// full.
func (t *Tier) Alloc() (idx uint32, ok bool) {
	n := len(t.free)
	if n == 0 {
		return 0, false
	}
	idx = t.free[n-1]
	t.free = t.free[:n-1]
	t.used++
	return idx, true
}

// Free returns a frame to the free list. Double frees panic: they corrupt
// the allocator invariant and are always caller bugs.
func (t *Tier) Free(idx uint32) {
	if int(idx) >= t.cfg.CapacityPages {
		panic(fmt.Sprintf("mem: freeing out-of-range frame %d in tier %s", idx, t.id))
	}
	if t.used == 0 {
		panic(fmt.Sprintf("mem: free with no allocated frames in tier %s", t.id))
	}
	t.free = append(t.free, idx)
	t.used--
}

// LoadedLatency returns the access latency under the given bandwidth
// utilization in [0,1]: a quadratic ramp to 3x unloaded at saturation, a
// smooth closed form adequate when tiers run well below saturation. The
// policies see the signal they need — the tier gets slower as it
// saturates.
func (t *Tier) LoadedLatency(bwUtil float64) sim.Duration {
	if bwUtil < 0 {
		bwUtil = 0
	}
	if bwUtil > 1 {
		bwUtil = 1
	}
	factor := 1.0 + 2.0*bwUtil*bwUtil
	return sim.Duration(float64(t.cfg.UnloadedLatency) * factor)
}
