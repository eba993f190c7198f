package migrate

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// asyncEnv maps npages slow pages under a fast tier that can hold all
// of them, so backlogs longer than one asyncBatchPages batch promote.
func asyncEnv(t *testing.T, npages int) (*AsyncMigrator, *pagetable.Replicated, *mem.Tiers) {
	t.Helper()
	eng, rt, tiers := testEnvFast(t, 4, npages, max(64, npages), nil)
	return NewAsyncMigrator(AsyncConfig{Engine: eng, RNG: sim.NewRNG(11)}), rt, tiers
}

func TestAsyncDrainsBacklogWithinBudget(t *testing.T) {
	a, rt, _ := asyncEnv(t, 16)
	for vp := pagetable.VPage(0); vp < 16; vp++ {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	if a.Backlog() != 16 {
		t.Fatalf("backlog = %d", a.Backlog())
	}
	res := a.RunEpoch(1e9, nil)
	if res.Moved != 16 || res.Backlog != 0 {
		t.Fatalf("moved=%d backlog=%d", res.Moved, res.Backlog)
	}
	for vp := pagetable.VPage(0); vp < 16; vp++ {
		p, _ := rt.Lookup(vp)
		if p.Frame().Tier != mem.TierFast {
			t.Fatalf("page %d not promoted", vp)
		}
	}
}

func TestAsyncBudgetThrottles(t *testing.T) {
	const pages = 4 * asyncBatchPages
	a, _, _ := asyncEnv(t, pages)
	for vp := range pagetable.VPage(pages) {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	// One batch costs well over 700K cycles (prep at 32 CPUs), so this
	// budget admits exactly one batch per epoch.
	res := a.RunEpoch(700_000, nil)
	if res.Moved != asyncBatchPages {
		t.Fatalf("moved %d in one epoch, want one batch of %d", res.Moved, asyncBatchPages)
	}
	if res.Backlog == 0 {
		t.Fatal("entire backlog drained despite tiny budget")
	}
	// The remaining backlog drains across later epochs.
	total := res.Moved
	for i := 0; i < 100 && a.Backlog() > 0; i++ {
		total += a.RunEpoch(700_000, nil).Moved
	}
	if total != pages {
		t.Fatalf("total moved = %d, want %d", total, pages)
	}
}

func TestAsyncEnqueueDedup(t *testing.T) {
	a, _, _ := asyncEnv(t, 4)
	a.EnqueueOne(Move{VP: 1, To: mem.TierFast})
	a.EnqueueOne(Move{VP: 1, To: mem.TierFast})
	if a.Backlog() != 1 {
		t.Fatalf("backlog = %d after duplicate enqueue", a.Backlog())
	}
	// Re-enqueue with a different destination replaces it.
	a.EnqueueOne(Move{VP: 1, To: mem.TierSlow})
	if a.Backlog() != 1 {
		t.Fatalf("backlog = %d after replace", a.Backlog())
	}
	res := a.RunEpoch(1e9, nil)
	if res.Moved != 0 { // already in slow tier: no-op
		t.Fatalf("moved = %d, want 0", res.Moved)
	}
}

func TestAsyncWriteHotPagesAbort(t *testing.T) {
	a, rt, _ := asyncEnv(t, 8)
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	res := a.RunEpoch(1e12, func(pagetable.VPage) float64 { return 1.0 })
	if res.Aborted != 8 || res.Moved != 0 {
		t.Fatalf("aborted=%d moved=%d, want all aborts", res.Aborted, res.Moved)
	}
	// Aborted pages stay in the slow tier.
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		p, _ := rt.Lookup(vp)
		if p.Frame().Tier != mem.TierSlow {
			t.Fatalf("aborted page %d moved", vp)
		}
	}
	// Wasted copies must still cost cycles.
	if res.Cycles == 0 {
		t.Fatal("aborted migrations consumed no cycles")
	}
}

func TestAsyncModerateWritesRetryButCommit(t *testing.T) {
	a, _, _ := asyncEnv(t, 32)
	for vp := pagetable.VPage(0); vp < 32; vp++ {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	res := a.RunEpoch(1e12, func(pagetable.VPage) float64 { return 0.4 })
	if res.Moved == 0 {
		t.Fatal("no commits at moderate write rate")
	}
	if res.Retries == 0 {
		t.Fatal("no retries at 40% dirty probability")
	}
	if res.Moved+res.Aborted != 32 {
		t.Fatalf("moved+aborted = %d, want 32", res.Moved+res.Aborted)
	}
}

func TestAsyncCleanPagesNeverRetry(t *testing.T) {
	a, _, _ := asyncEnv(t, 8)
	for vp := pagetable.VPage(0); vp < 8; vp++ {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
	}
	res := a.RunEpoch(1e12, func(pagetable.VPage) float64 { return 0 })
	if res.Retries != 0 || res.Aborted != 0 || res.Moved != 8 {
		t.Fatalf("clean run: %+v", res)
	}
}

func TestAsyncStatsAccumulate(t *testing.T) {
	a, _, _ := asyncEnv(t, 8)
	a.EnqueueOne(Move{VP: 0, To: mem.TierFast})
	a.RunEpoch(1e9, nil)
	a.EnqueueOne(Move{VP: 1, To: mem.TierFast})
	a.RunEpoch(1e9, nil)
	st := a.Stats()
	if a.Backlog() != 0 || st.Moved != 2 {
		t.Fatalf("backlog = %d, stats = %+v", a.Backlog(), st)
	}
	if st.CyclesUsed <= 0 {
		t.Fatal("cycles not accumulated")
	}
}

func TestAsyncConfigValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil engine did not panic")
		}
	}()
	NewAsyncMigrator(AsyncConfig{})
}
