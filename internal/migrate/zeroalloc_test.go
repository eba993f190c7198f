package migrate

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/pagetable"
)

// TestEmitSyncNilSinkZeroAlloc pins the zero-allocation guarantee for
// the nil-obs.Sink path: with telemetry disabled, publishing a batch's
// events must not build a single Event (the obs.E variadic field list
// allocates, so every emission must be guarded by obs.Enabled).
func TestEmitSyncNilSinkZeroAlloc(t *testing.T) {
	e, _, _ := testEnv(t, 4, 8, nil)
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	if e.cfg.Obs != nil {
		t.Fatal("testEnv should leave Obs nil")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.emitSync(res, 2)
	}); allocs != 0 {
		t.Fatalf("emitSync with nil sink allocated %.0f objects/op, want 0", allocs)
	}
}

// TestMigrateSyncSteadyStateAllocs pins the whole sync hot path: after
// warm-up, a batch migration with a nil sink allocates nothing — the
// scope bitmap, scope list, staging buffer, and Outcomes slice are all
// engine scratch reused across calls.
func TestMigrateSyncSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, func(c *Config) { c.TargetedShootdown = true })
	moves := []Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}}
	flip := func() {
		// Alternate destinations so every call migrates both pages.
		if moves[0].To == mem.TierFast {
			moves[0].To, moves[1].To = mem.TierSlow, mem.TierSlow
		} else {
			moves[0].To, moves[1].To = mem.TierFast, mem.TierFast
		}
	}
	// Warm up the reusable buffers.
	for i := 0; i < 4; i++ {
		e.MigrateSync(moves)
		flip()
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.MigrateSync(moves)
		flip()
	})
	if allocs != 0 {
		t.Fatalf("steady-state MigrateSync allocated %.0f objects/op, want 0", allocs)
	}
}

// TestMigrateSyncProfEnabledSteadyStateAllocs extends the hot-path
// allocation budget to an instrumented engine: charging every phase of
// a batch into the cost-attribution accounts must stay on the same
// zero-allocation budget as the uninstrumented path.
func TestMigrateSyncProfEnabledSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, func(c *Config) {
		c.TargetedShootdown = true
		c.Prof = prof.NewEngineAccounts(prof.New(), "bench")
	})
	moves := []Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}}
	flip := func() {
		if moves[0].To == mem.TierFast {
			moves[0].To, moves[1].To = mem.TierSlow, mem.TierSlow
		} else {
			moves[0].To, moves[1].To = mem.TierFast, mem.TierFast
		}
	}
	for i := 0; i < 4; i++ {
		e.MigrateSync(moves)
		flip()
	}
	allocs := testing.AllocsPerRun(50, func() {
		e.MigrateSync(moves)
		flip()
	})
	if allocs != 0 {
		t.Fatalf("prof-enabled MigrateSync allocated %.0f objects/op, want 0", allocs)
	}
	if pages := e.cfg.Prof.Sync.Copy.Count(); pages == 0 {
		t.Fatal("profiler accounts unchanged; the instrumented path was not exercised")
	}
}

// TestMigrateSyncCommitPathsSteadyStateAllocs extends the budget to the
// commit's other paths: a promotion into a full fast tier (no frame,
// the entry stays mapped) and a clean demotion by shadow remap.
func TestMigrateSyncCommitPathsSteadyStateAllocs(t *testing.T) {
	t.Run("no-frame", func(t *testing.T) {
		e, _, _ := testEnvFast(t, 4, 32, 2, func(c *Config) { c.TargetedShootdown = true })
		e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
		moves := []Move{{VP: 2, To: mem.TierFast}, {VP: 3, To: mem.TierFast}}
		allocs := testing.AllocsPerRun(50, func() {
			if res := e.MigrateSync(moves); res.Outcomes[0] != NoFrame {
				t.Fatalf("outcome %v, want no-frame", res.Outcomes[0])
			}
		})
		if allocs != 0 {
			t.Fatalf("no-frame MigrateSync allocated %.0f objects/op, want 0", allocs)
		}
	})
	t.Run("shadow-remap", func(t *testing.T) {
		e, _, _ := testEnv(t, 4, 32, func(c *Config) { c.Shadowing = true })
		moves := []Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}}
		flip := func() Outcome {
			res := e.MigrateSync(moves)
			to := mem.TierFast
			if moves[0].To == mem.TierFast {
				to = mem.TierSlow
			}
			moves[0].To, moves[1].To = to, to
			return res.Outcomes[0]
		}
		for i := 0; i < 4; i++ {
			flip()
		}
		remapped := 0
		allocs := testing.AllocsPerRun(50, func() {
			if flip() == Remapped {
				remapped++
			}
		})
		if allocs != 0 {
			t.Fatalf("shadowing MigrateSync allocated %.0f objects/op, want 0", allocs)
		}
		if remapped == 0 {
			t.Fatal("no demotion took the shadow remap")
		}
	})
}

// TestObsEnabledNilSinkZeroAlloc pins the guard itself.
func TestObsEnabledNilSinkZeroAlloc(t *testing.T) {
	var sink obs.Sink
	if allocs := testing.AllocsPerRun(100, func() {
		if obs.Enabled(sink, obs.EvMigrateSync) {
			t.Fatal("nil sink reported enabled")
		}
	}); allocs != 0 {
		t.Fatalf("obs.Enabled(nil, ...) allocated %.0f objects/op, want 0", allocs)
	}
}

// TestAsyncEnqueueOneSteadyStateAllocs pins the per-access enqueue path
// used by policies: on a fresh migrator, whose constructor presizes the
// backlog, EnqueueOne must not allocate Move batches. AllocsPerRun's
// warm-up call absorbs the dedup map's first chunk.
func TestAsyncEnqueueOneSteadyStateAllocs(t *testing.T) {
	e, _, _ := testEnv(t, 4, 32, nil)
	a := NewAsyncMigrator(AsyncConfig{Engine: e})
	vp := pagetable.VPage(0)
	allocs := testing.AllocsPerRun(8, func() {
		a.EnqueueOne(Move{VP: vp, To: mem.TierFast})
		vp++
	})
	if allocs != 0 {
		t.Fatalf("steady-state EnqueueOne allocated %.2f objects/op, want 0", allocs)
	}
}
