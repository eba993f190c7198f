package migrate

import (
	"vulcan/internal/dense"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// shadowStore tracks slow-tier shadow frames of promoted pages. A shadow
// lets a later demotion of a still-clean page complete with a remap
// instead of a copy, the thrash-mitigation technique Vulcan borrows from
// Nomad (§3.5).
//
// Frames live in a dense paged map keyed by page number: promotion and
// demotion churn put/delete pages constantly, which on a Go map meant
// unreclaimed slots and steady bucket growth (the single largest
// allocation site in the checkpoint benchmark). The dense map also
// iterates in ascending page order by construction, so drain and
// Snapshot need no sort to stay deterministic.
type shadowStore struct {
	frames dense.Map // vp -> packed frame (see packFrame)
	// lifetime counters
	consumed uint64
	dropped  uint64
}

// packFrame encodes a frame as a nonzero uint64 for the dense map; the
// +1 bias keeps {fast, index 0} distinguishable from "no shadow".
func packFrame(f mem.Frame) uint64 {
	return (uint64(f.Tier)<<32 | uint64(f.Index)) + 1
}

func unpackFrame(w uint64) mem.Frame {
	w--
	return mem.Frame{Tier: mem.TierID(w >> 32), Index: uint32(w)}
}

// ShadowStats summarizes shadow activity.
type ShadowStats struct {
	Live     int
	Consumed uint64 // demotions satisfied by remap
	Dropped  uint64 // invalidated by writes or replacement
}

func newShadowStore() *shadowStore {
	return &shadowStore{}
}

//vulcan:hotpath
func (s *shadowStore) put(vp pagetable.VPage, f mem.Frame) {
	s.frames.Set(uint64(vp), packFrame(f))
}

// take removes and returns vp's shadow. The caller owns the frame.
//
//vulcan:hotpath
func (s *shadowStore) take(vp pagetable.VPage) (mem.Frame, bool) {
	w := s.frames.Delete(uint64(vp))
	if w == 0 {
		return mem.NilFrame, false
	}
	s.consumed++
	return unpackFrame(w), true
}

// drop removes vp's shadow because it became stale (written after
// promotion, or replaced by a newer promotion). The caller owns the frame.
//
//vulcan:hotpath
func (s *shadowStore) drop(vp pagetable.VPage) (mem.Frame, bool) {
	w := s.frames.Delete(uint64(vp))
	if w == 0 {
		return mem.NilFrame, false
	}
	s.dropped++
	return unpackFrame(w), true
}

//vulcan:hotpath
func (s *shadowStore) has(vp pagetable.VPage) bool {
	return s.frames.Get(uint64(vp)) != 0
}

// drain removes all shadows, returning their frames; counted as dropped.
// Frames come back in VPage order: they are released to the tier free
// list, so unordered iteration here would scramble every later
// allocation and break seeded replay.
func (s *shadowStore) drain() []mem.Frame {
	out := make([]mem.Frame, 0, s.frames.Len())
	s.frames.ForEach(func(_, w uint64) {
		out = append(out, unpackFrame(w))
		s.dropped++
	})
	s.frames.Clear()
	return out
}

func (s *shadowStore) stats() ShadowStats {
	return ShadowStats{
		Live:     s.frames.Len(),
		Consumed: s.consumed,
		Dropped:  s.dropped,
	}
}
