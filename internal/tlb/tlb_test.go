package tlb

import (
	"testing"

	"vulcan/internal/pagetable"
)

func TestMissThenHit(t *testing.T) {
	tb := New(64)
	vp := pagetable.VPage(42)
	if tb.Access(vp) {
		t.Fatal("cold access hit")
	}
	if !tb.Access(vp) {
		t.Fatal("second access missed")
	}
	s := tb.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestInvalidate(t *testing.T) {
	tb := New(64)
	vp := pagetable.VPage(7)
	tb.Access(vp)
	if !tb.Invalidate(vp) {
		t.Fatal("invalidate of cached entry returned false")
	}
	if tb.Invalidate(vp) {
		t.Fatal("double invalidate returned true")
	}
	if tb.Access(vp) {
		t.Fatal("access after invalidation hit")
	}
}

func TestCapacityRounding(t *testing.T) {
	if got := len(New(100).tags); got != 128 {
		t.Fatalf("entries = %d, want 128", got)
	}
	if got := len(New(64).tags); got != 64 {
		t.Fatalf("entries = %d, want 64", got)
	}
}

func TestConflictEviction(t *testing.T) {
	// Fill far beyond capacity: the working set cannot all be resident.
	tb := New(16)
	for vp := pagetable.VPage(0); vp < 1024; vp++ {
		tb.Access(vp)
	}
	// A second pass hits only pages still resident, at most one per
	// slot: a miss refills its slot, so no slot hits twice.
	hits := 0
	for vp := pagetable.VPage(0); vp < 1024; vp++ {
		if tb.Access(vp) {
			hits++
		}
	}
	if hits > 16 {
		t.Fatalf("%d residents in a 16-entry TLB", hits)
	}
}

func TestHitRateSmallWorkingSet(t *testing.T) {
	tb := New(DefaultEntries)
	// 128-page working set revisited many times: hit rate must approach 1.
	for round := 0; round < 100; round++ {
		for vp := pagetable.VPage(0); vp < 128; vp++ {
			tb.Access(vp)
		}
	}
	if hr := tb.Stats().HitRate(); hr < 0.95 {
		t.Fatalf("hit rate = %v for resident working set", hr)
	}
}

func TestHitRateZeroOnFresh(t *testing.T) {
	if New(8).Stats().HitRate() != 0 {
		t.Fatal("fresh TLB hit rate nonzero")
	}
}

func TestNonPositiveEntriesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestDelayedAcks(t *testing.T) {
	tb := New(8)
	tb.NoteDelayedAck()
	tb.NoteDelayedAck()
	if got := tb.Stats().DelayedAcks; got != 2 {
		t.Fatalf("DelayedAcks = %d", got)
	}
	merged := tb.Stats().Merge(Stats{DelayedAcks: 3})
	if merged.DelayedAcks != 5 {
		t.Fatalf("merged DelayedAcks = %d", merged.DelayedAcks)
	}
}
