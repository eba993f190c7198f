package migrate

import (
	"slices"
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
)

// scriptedChaos fails exactly the pages in fail, keyed by (vp, batch);
// a deterministic stand-in for fault.Injector.
type scriptedChaos struct {
	fail     map[[2]uint64]bool // {vp, batch} → busy
	failAll  bool
	ipiDelay float64
}

func (c *scriptedChaos) MigrationFails(app string, vp, batch uint64) bool {
	return c.failAll || c.fail[[2]uint64{vp, batch}]
}
func (c *scriptedChaos) IPIDelayCycles(app string, batch uint64) float64 { return c.ipiDelay }

func TestBusyOutcome(t *testing.T) {
	chaos := &scriptedChaos{fail: map[[2]uint64]bool{{1, 1}: true}}
	var busy []Move
	e, rt, _ := testEnv(t, 4, 8, func(cfg *Config) {
		cfg.Inject = chaos
		cfg.OnBusy = func(mv Move) { busy = append(busy, mv) }
	})
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}, {VP: 1, To: mem.TierFast}})
	if res.Moved != 1 || res.Busy != 1 || res.Failed != 0 {
		t.Fatalf("moved=%d busy=%d failed=%d", res.Moved, res.Busy, res.Failed)
	}
	if res.Outcomes[0] != Moved || res.Outcomes[1] != Busy {
		t.Fatalf("outcomes = %v", res.Outcomes)
	}
	if len(busy) != 1 || busy[0].VP != 1 {
		t.Fatalf("OnBusy calls = %v", busy)
	}
	// The busy page stays mapped where it was.
	p, ok := rt.Lookup(1)
	if !ok || p.Frame().Tier != mem.TierSlow {
		t.Fatalf("busy page moved or unmapped: %v", p)
	}
	// The busy page charges the lock round-trip but not copy/remap: a
	// second, fault-free engine migrating one page matches everything
	// but the unmap term.
	e2, _, _ := testEnv(t, 4, 8, nil)
	clean := e2.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	wantUnmap := clean.Breakdown.Unmap * 2
	if res.Breakdown.Unmap != wantUnmap {
		t.Errorf("unmap cycles = %v, want %v (attempted+busy)", res.Breakdown.Unmap, wantUnmap)
	}
	if res.Breakdown.Copy != clean.Breakdown.Copy || res.Breakdown.Remap != clean.Breakdown.Remap {
		t.Errorf("busy page charged copy/remap: %+v vs %+v", res.Breakdown, clean.Breakdown)
	}
}

func TestAllBusyBatchStillCharges(t *testing.T) {
	e, _, _ := testEnv(t, 4, 8, func(cfg *Config) {
		cfg.Inject = &scriptedChaos{failAll: true}
	})
	res := e.MigrateSync([]Move{{VP: 0, To: mem.TierFast}})
	if res.Busy != 1 || res.Moved != 0 {
		t.Fatalf("busy=%d moved=%d", res.Busy, res.Moved)
	}
	if res.Breakdown.Total() <= 0 {
		t.Error("all-busy batch cost nothing (prep/trap/lock should charge)")
	}
	if res.Breakdown.Copy != 0 || res.Breakdown.TLB != 0 {
		t.Errorf("all-busy batch charged copy/shootdown: %+v", res.Breakdown)
	}
}

func TestIPIDelayCharged(t *testing.T) {
	var delayed int
	e, _, _ := testEnv(t, 4, 8, func(cfg *Config) {
		cfg.Inject = &scriptedChaos{ipiDelay: 400}
		cfg.OnIPIDelay = func(targets []int) { delayed += len(targets) }
	})
	e2, _, _ := testEnv(t, 4, 8, nil)
	moves := []Move{{VP: 0, To: mem.TierFast}}
	faulted := e.MigrateSync(moves)
	clean := e2.MigrateSync(moves)
	extra := faulted.Breakdown.TLB - clean.Breakdown.TLB
	want := 400 * float64(faulted.Targets)
	if extra != want {
		t.Errorf("IPI delay added %v cycles, want %v", extra, want)
	}
	if delayed != faulted.Targets {
		t.Errorf("OnIPIDelay reported %d targets, want %d", delayed, faulted.Targets)
	}
}

func TestRetrierRecovers(t *testing.T) {
	// Page 1 is busy in batch 1 (the initial policy batch) and batch 2
	// (the first retry), then succeeds.
	chaos := &scriptedChaos{fail: map[[2]uint64]bool{{1, 1}: true, {1, 2}: true}}
	var retrier *Retrier
	e, rt, _ := testEnv(t, 4, 8, func(cfg *Config) {
		cfg.Inject = chaos
		cfg.OnBusy = func(mv Move) { retrier.NoteBusy(mv) }
	})
	retrier = NewRetrier(e)

	res := e.MigrateSync([]Move{{VP: 1, To: mem.TierFast}}) // batch 1
	if res.Busy != 1 || retrier.Pending() != 1 {
		t.Fatalf("busy=%d pending=%d", res.Busy, retrier.Pending())
	}

	// Epoch 0: not due yet (backoff 1 epoch from now=0 → due epoch 1).
	ep := retrier.RunEpoch(0)
	if ep.Retried != 0 || ep.Pending != 1 {
		t.Fatalf("epoch 0: %+v", ep)
	}
	// Epoch 1: retry fires (batch 2) and fails again → backoff 2.
	ep = retrier.RunEpoch(1)
	if ep.Retried != 1 || ep.StillBusy != 1 || ep.Recovered != 0 {
		t.Fatalf("epoch 1: %+v", ep)
	}
	if ep.Cycles <= 0 {
		t.Error("retry batch cost nothing")
	}
	// Epoch 2: backed off, nothing due.
	if ep = retrier.RunEpoch(2); ep.Retried != 0 {
		t.Fatalf("epoch 2: %+v", ep)
	}
	// Epoch 3: due again (batch 3), succeeds.
	ep = retrier.RunEpoch(3)
	if ep.Retried != 1 || ep.Recovered != 1 || ep.Pending != 0 {
		t.Fatalf("epoch 3: %+v", ep)
	}
	p, _ := rt.Lookup(1)
	if p.Frame().Tier != mem.TierFast {
		t.Fatal("recovered page not migrated")
	}
	st := retrier.Stats()
	if st.Retried != 2 || st.Recovered != 1 || st.GaveUp != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRetrierGivesUp(t *testing.T) {
	var retrier *Retrier
	rec := obs.NewRecorder()
	e2, _, _ := testEnv(t, 4, 8, func(cfg *Config) {
		cfg.Inject = &scriptedChaos{failAll: true}
		cfg.OnBusy = func(mv Move) { retrier.NoteBusy(mv) }
		cfg.Obs = rec
		cfg.Owner = "app0"
	})
	retrier = NewRetrier(e2)

	e2.MigrateSync([]Move{{VP: 3, To: mem.TierFast}})
	if retrier.Pending() != 1 {
		t.Fatalf("pending = %d", retrier.Pending())
	}
	// Queued at epoch 0, the page is retried after backoffs of 1, 2, 4
	// and 8 epochs, and abandoned on its retryMaxAttempts-th failure.
	var retriedAt []uint64
	gaveUp := 0
	for epoch := uint64(1); epoch < 20; epoch++ {
		ep := retrier.RunEpoch(epoch)
		if ep.Retried > 0 {
			retriedAt = append(retriedAt, epoch)
		}
		gaveUp += ep.GaveUp
	}
	if want := []uint64{1, 3, 7, 15}; !slices.Equal(retriedAt, want) {
		t.Fatalf("retried at epochs %v, want %v", retriedAt, want)
	}
	if gaveUp != 1 || retrier.Pending() != 0 {
		t.Fatalf("gaveUp=%d pending=%d", gaveUp, retrier.Pending())
	}
	if st := retrier.Stats(); st.Retried != uint64(retryMaxAttempts) || st.GaveUp != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// A page that gave up can be re-noted by a later policy decision.
	e2.MigrateSync([]Move{{VP: 3, To: mem.TierFast}})
	if retrier.Pending() != 1 {
		t.Fatal("gave-up page not re-trackable")
	}
	// The give-up emitted a migrate.giveup event.
	saw := false
	for _, ev := range rec.Events() {
		if ev.Type == obs.EvMigrateGiveup {
			saw = true
			if ev.Field("pages") != 1 {
				t.Errorf("giveup pages = %v", ev.Field("pages"))
			}
		}
	}
	if !saw {
		t.Error("no migrate.giveup event emitted")
	}
}

func TestRetrierBudget(t *testing.T) {
	var retrier *Retrier
	const pages = retryBudget + 72
	e, _, _ := testEnv(t, 4, pages, func(cfg *Config) {
		cfg.Inject = &scriptedChaos{failAll: true}
		cfg.OnBusy = func(mv Move) { retrier.NoteBusy(mv) }
	})
	retrier = NewRetrier(e)
	var moves []Move
	for vp := range pagetable.VPage(pages) {
		moves = append(moves, Move{VP: vp, To: mem.TierFast})
	}
	e.MigrateSync(moves)
	if retrier.Pending() != pages {
		t.Fatalf("pending = %d", retrier.Pending())
	}
	ep := retrier.RunEpoch(1)
	if ep.Retried != retryBudget {
		t.Fatalf("budget not enforced: retried %d, want %d", ep.Retried, retryBudget)
	}
	if ep.Pending != pages {
		t.Fatalf("pending after budgeted pass = %d (%d rescheduled + 72 deferred)", ep.Pending, retryBudget)
	}
}

func TestRetrierDedup(t *testing.T) {
	e, _, _ := testEnv(t, 4, 8, nil)
	r := NewRetrier(e)
	mv := Move{VP: 5, To: mem.TierFast}
	r.NoteBusy(mv)
	r.NoteBusy(mv)
	if r.Pending() != 1 {
		t.Fatalf("duplicate NoteBusy enqueued twice: %d", r.Pending())
	}
}
