package migrate

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// testEnv builds a small two-tier system with a replicated page table for
// nthreads and npages pages mapped into the slow tier by thread 0.
func testEnv(t *testing.T, nthreads, npages int, opts func(*Config)) (*Engine, *pagetable.Replicated, *mem.Tiers) {
	t.Helper()
	return testEnvFast(t, nthreads, npages, 64, opts)
}

// testEnvFast is testEnv with a fast tier of fastPages frames.
func testEnvFast(t *testing.T, nthreads, npages, fastPages int, opts func(*Config)) (*Engine, *pagetable.Replicated, *mem.Tiers) {
	t.Helper()
	tiers := mem.NewTiers([mem.NumTiers]mem.TierConfig{
		mem.TierFast: {Name: "fast", CapacityPages: fastPages, UnloadedLatency: 70, BandwidthGBs: 205},
		mem.TierSlow: {Name: "slow", CapacityPages: 512, UnloadedLatency: 162, BandwidthGBs: 25},
	})
	rt := pagetable.NewReplicated(nthreads)
	for vp := pagetable.VPage(0); vp < pagetable.VPage(npages); vp++ {
		f, ok := tiers.Alloc(mem.TierSlow)
		if !ok {
			t.Fatal("slow tier exhausted in setup")
		}
		if err := rt.Map(0, vp, pagetable.NewPTE(f, 0)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{
		Cost:           machine.DefaultCostModel(),
		Tiers:          tiers,
		Table:          rt,
		Cpus:           32,
		ProcessThreads: nthreads,
	}
	if opts != nil {
		opts(&cfg)
	}
	return NewEngine(cfg), rt, tiers
}

func TestMigrateSyncPromotes(t *testing.T) {
	e, rt, tiers := testEnv(t, 4, 8, nil)
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	if res.Moved != 2 || res.Failed != 0 {
		t.Fatalf("moved=%d failed=%d", res.Moved, res.Failed)
	}
	for vp := pagetable.VPage(0); vp < 2; vp++ {
		p, ok := rt.Lookup(vp)
		if !ok || p.Frame().Tier != mem.TierFast {
			t.Fatalf("page %d not in fast tier: %v", vp, p)
		}
		if p.Accessed() || p.Dirty() {
			t.Fatalf("migrated page %d has stale A/D bits", vp)
		}
	}
	if tiers.Fast().Used() != 2 {
		t.Fatalf("fast used = %d", tiers.Fast().Used())
	}
	if tiers.Slow().Used() != 6 {
		t.Fatalf("slow used = %d (old frames not freed?)", tiers.Slow().Used())
	}
	if res.Breakdown.Total() <= 0 {
		t.Fatal("migration cost not charged")
	}
}

func TestMigrateSyncPreservesOwnership(t *testing.T) {
	e, rt, _ := testEnv(t, 4, 4, nil)
	rt.Touch(2, 1, false) // page 1 becomes shared
	e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	p0, _ := rt.Lookup(0)
	if p0.Shared() || p0.Owner() != 0 {
		t.Fatalf("private page lost ownership: %v", p0)
	}
	p1, _ := rt.Lookup(1)
	if !p1.Shared() {
		t.Fatalf("shared page lost shared marker: %v", p1)
	}
}

func TestMigrateSyncOutcomes(t *testing.T) {
	e, _, _ := testEnv(t, 2, 4, nil)
	e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	res := e.MigrateSync([]Move{
		{VP: 0, To: mem.TierFast},   // already there
		{VP: 100, To: mem.TierFast}, // never mapped
		{VP: 1, To: mem.TierFast},   // fine
	})
	if res.Outcomes[0] != AlreadyThere {
		t.Fatalf("outcome[0] = %v", res.Outcomes[0])
	}
	if res.Outcomes[1] != NotMapped {
		t.Fatalf("outcome[1] = %v", res.Outcomes[1])
	}
	if res.Outcomes[2] != Moved {
		t.Fatalf("outcome[2] = %v", res.Outcomes[2])
	}
	if res.Failed != 1 || res.Moved != 1 {
		t.Fatalf("failed=%d moved=%d", res.Failed, res.Moved)
	}
}

func TestMigrateSyncDestinationFull(t *testing.T) {
	e, rt, tiers := testEnv(t, 2, 80, nil)
	var moves []Move
	for vp := pagetable.VPage(0); vp < 80; vp++ {
		moves = append(moves, Move{VP: vp, To: mem.TierFast})
	}
	res := e.MigrateSync(moves)
	if res.Moved != 64 {
		t.Fatalf("moved = %d, want fast capacity 64", res.Moved)
	}
	if res.Failed != 16 {
		t.Fatalf("failed = %d, want 16", res.Failed)
	}
	// Failed pages must still be mapped in the slow tier.
	noFrames := 0
	for i, o := range res.Outcomes {
		if o == NoFrame {
			noFrames++
			p, ok := rt.Lookup(moves[i].VP)
			if !ok || p.Frame().Tier != mem.TierSlow {
				t.Fatalf("NoFrame page %d lost its mapping: %v %v", moves[i].VP, p, ok)
			}
		}
	}
	if noFrames != 16 {
		t.Fatalf("NoFrame outcomes = %d", noFrames)
	}
	if tiers.Fast().FreePages() != 0 {
		t.Fatal("fast tier should be exactly full")
	}
}

func TestMigrateSyncEmptyAndNoopBatches(t *testing.T) {
	e, _, _ := testEnv(t, 2, 2, nil)
	if c := e.MigrateSync(nil).Cycles(); c != 0 {
		t.Fatalf("empty batch cost %v cycles", c)
	}
	// All pages already in place: no kernel entry, no cost.
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierSlow}})
	if res.Cycles() != 0 {
		t.Fatalf("no-op batch cost %v cycles", res.Cycles())
	}
}

func TestMigrateTargetedShootdownScope(t *testing.T) {
	// Private page with targeted shootdowns: scope is just the owner.
	e, _, _ := testEnv(t, 8, 4, func(c *Config) { c.TargetedShootdown = true })
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if res.Targets != 1 {
		t.Fatalf("targets = %d, want 1 (private page)", res.Targets)
	}

	// Without targeting: all process threads.
	e2, _, _ := testEnv(t, 8, 4, nil)
	res2 := e2.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if res2.Targets != 8 {
		t.Fatalf("untargeted targets = %d, want 8", res2.Targets)
	}
	if res2.Breakdown.TLB <= res.Breakdown.TLB {
		t.Fatal("targeted shootdown not cheaper")
	}

	// A batch that unmaps nothing sends no IPI, targeted or not.
	res3 := e2.MigrateSync([]Move{{VP: 1, To: mem.TierSlow}, {VP: 99, To: mem.TierFast}})
	if res3.Targets != 0 {
		t.Fatalf("untargeted batch with no attempted page: targets = %d, want 0", res3.Targets)
	}
}

func TestMigrateSharedPageScopeWidens(t *testing.T) {
	e, rt, _ := testEnv(t, 8, 4, func(c *Config) { c.TargetedShootdown = true })
	rt.Touch(3, 0, false)
	rt.Touch(5, 0, false)
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if res.Targets != 3 { // owner 0 + threads 3, 5
		t.Fatalf("shared page targets = %d, want 3", res.Targets)
	}
}

func TestMigrateInvalidateCallback(t *testing.T) {
	var invalidated []pagetable.VPage
	var scopes [][]int
	e, _, _ := testEnv(t, 4, 4, func(c *Config) {
		c.Invalidate = func(vp pagetable.VPage, threads []int) {
			invalidated = append(invalidated, vp)
			scopes = append(scopes, threads)
		}
	})
	e.MigrateSync([]Move{{VP: 1, To: mem.TierFast}, {VP: 2, To: mem.TierFast}})
	if len(invalidated) != 2 {
		t.Fatalf("invalidate callbacks = %d, want 2", len(invalidated))
	}
	if len(scopes[0]) != 4 {
		t.Fatalf("scope size = %d, want all 4 threads", len(scopes[0]))
	}
}

func TestOptimizedPrepReducesCost(t *testing.T) {
	base, _, _ := testEnv(t, 4, 4, nil)
	opt, _, _ := testEnv(t, 4, 4, func(c *Config) { c.OptimizedPrep = true })
	rb := base.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	ro := opt.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if ro.Breakdown.Prep >= rb.Breakdown.Prep {
		t.Fatalf("optimized prep %v not cheaper than %v",
			ro.Breakdown.Prep, rb.Breakdown.Prep)
	}
}

func TestShadowingDemoteByRemap(t *testing.T) {
	e, rt, tiers := testEnv(t, 2, 4, func(c *Config) { c.Shadowing = true })
	// Promote: slow frame should be retained as shadow.
	e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if !e.HasShadow(0) {
		t.Fatal("promotion did not create a shadow")
	}
	if tiers.Slow().Used() != 4 {
		t.Fatalf("slow used = %d, want 4 (shadow retained)", tiers.Slow().Used())
	}
	// Demote without writing: must remap, not copy.
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierSlow}})
	if res.Remapped != 1 || res.Moved != 0 {
		t.Fatalf("remapped=%d moved=%d, want shadow remap", res.Remapped, res.Moved)
	}
	if res.Breakdown.Copy != 0 {
		t.Fatal("shadow demotion charged a copy")
	}
	p, _ := rt.Lookup(0)
	if p.Frame().Tier != mem.TierSlow {
		t.Fatal("page not back in slow tier")
	}
	if tiers.Fast().Used() != 0 {
		t.Fatal("fast frame leaked")
	}
	if e.HasShadow(0) {
		t.Fatal("shadow survived consumption")
	}
}

func TestShadowingDirtyPageCopies(t *testing.T) {
	e, rt, _ := testEnv(t, 2, 4, func(c *Config) { c.Shadowing = true })
	e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	rt.Touch(0, 0, true) // write -> dirty; the shadow is stale
	e.InvalidateShadow(0)
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierSlow}})
	if res.Moved != 1 || res.Remapped != 0 {
		t.Fatalf("dirty demotion moved=%d remapped=%d, want full copy",
			res.Moved, res.Remapped)
	}
}

func TestShadowStatsAndDrop(t *testing.T) {
	e, _, tiers := testEnv(t, 2, 4, func(c *Config) { c.Shadowing = true })
	e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	st := e.Shadows()
	if st.Live+int(st.Consumed+st.Dropped) != 2 || st.Live != 2 {
		t.Fatalf("stats = %+v", st)
	}
	e.DropAllShadows()
	st = e.Shadows()
	if st.Live != 0 || st.Dropped != 2 {
		t.Fatalf("after drop stats = %+v", st)
	}
	if tiers.Slow().Used() != 2 {
		t.Fatalf("slow used = %d after dropping shadows, want 2", tiers.Slow().Used())
	}
}

func TestFrameConservationUnderChurn(t *testing.T) {
	// Invariant: used+free per tier equals capacity after arbitrary
	// promote/demote churn, with shadowing enabled.
	e, _, tiers := testEnv(t, 4, 32, func(c *Config) {
		c.Shadowing = true
		c.TargetedShootdown = true
	})
	for round := 0; round < 20; round++ {
		var up, down []Move
		for vp := pagetable.VPage(0); vp < 32; vp++ {
			if (int(vp)+round)%3 == 0 {
				up = append(up, Move{VP: vp, To: mem.TierFast})
			} else {
				down = append(down, Move{VP: vp, To: mem.TierSlow})
			}
		}
		e.MigrateSync(up)
		e.MigrateSync(down)
	}
	fast, slow := tiers.Fast(), tiers.Slow()
	if fast.Used()+fast.FreePages() != fast.Capacity() {
		t.Fatal("fast tier frame leak")
	}
	if slow.Used()+slow.FreePages() != slow.Capacity() {
		t.Fatal("slow tier frame leak")
	}
}

func TestEngineConfigValidation(t *testing.T) {
	tiers := mem.NewTiers([mem.NumTiers]mem.TierConfig{
		mem.TierFast: {Name: "f", CapacityPages: 1, UnloadedLatency: 1, BandwidthGBs: 1},
		mem.TierSlow: {Name: "s", CapacityPages: 1, UnloadedLatency: 1, BandwidthGBs: 1},
	})
	tbl := pagetable.NewReplicated(1)
	cases := map[string]Config{
		"nil tiers":   {Table: tbl, Cpus: 1, ProcessThreads: 1},
		"nil table":   {Tiers: tiers, Cpus: 1, ProcessThreads: 1},
		"zero cpus":   {Tiers: tiers, Table: tbl, ProcessThreads: 1},
		"zero thread": {Tiers: tiers, Table: tbl, Cpus: 1},
	}
	for name, cfg := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			NewEngine(cfg)
		}()
	}
}

func TestOutcomeString(t *testing.T) {
	for o, want := range map[Outcome]string{
		Moved: "moved", Remapped: "remapped", AlreadyThere: "already-there",
		NotMapped: "not-mapped", NoFrame: "no-frame", Outcome(99): "outcome(99)",
	} {
		if o.String() != want {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), want)
		}
	}
}
