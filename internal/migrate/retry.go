package migrate

import (
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// The retrier's bounds: at most retryBudget pages resubmitted per
// epoch, retryMaxAttempts retries per page before it is abandoned, and a
// delay that starts at retryBackoffBase epochs and doubles per failure up
// to retryBackoffCap.
const (
	retryBudget      int = 128
	retryMaxAttempts int = 4
	retryBackoffBase int = 1
	retryBackoffCap  int = 8
)

// RetryStats accumulates a Retrier's lifetime totals.
type RetryStats struct {
	Retried   uint64 // retry attempts issued
	Recovered uint64 // pages eventually migrated (or resolved)
	GaveUp    uint64 // pages abandoned after exhausting attempts
}

// RetryEpoch reports one RunEpoch pass.
type RetryEpoch struct {
	Retried   int // pages re-submitted this epoch
	Recovered int // of those, completed (moved/remapped/resolved)
	StillBusy int // failed again, rescheduled with backoff
	GaveUp    int // abandoned (attempts exhausted or unmigratable)
	Pending   int // pages still queued after the pass
	Cycles    float64
}

// retryEntry is one transiently-failed migration awaiting retry.
type retryEntry struct {
	mv       Move
	attempts int
	due      uint64 // first epoch the retry is eligible
}

// Retrier is the resilience answer to Busy outcomes: a bounded,
// backoff-scheduled retry queue in front of an Engine. The pending list
// is insertion-ordered (never a map walk), attempts are bounded, and
// each epoch's resubmission batch is capped by a budget — so a fault
// storm degrades throughput instead of looping forever. Wire NoteBusy
// as the engine's OnBusy callback and call RunEpoch once per system
// epoch.
type Retrier struct {
	eng     *Engine
	now     uint64
	pending []retryEntry
	tracked map[pagetable.VPage]struct{}
	stats   RetryStats

	// Scratch reused across epochs.
	moves []Move       //vulcan:nosnap per-epoch scratch, truncated at the top of RunEpoch
	batch []retryEntry //vulcan:nosnap per-epoch scratch, truncated at the top of RunEpoch
}

// NewRetrier builds a retrier over eng.
func NewRetrier(eng *Engine) *Retrier {
	if eng == nil {
		panic("migrate: NewRetrier requires an Engine")
	}
	return &Retrier{eng: eng, tracked: make(map[pagetable.VPage]struct{})}
}

// NoteBusy enqueues a transiently-failed move for retry. Pages already
// tracked are ignored — in particular the retrier's own resubmissions
// that fail again (their rescheduling is handled by RunEpoch from the
// batch outcome, with the attempt count intact).
func (r *Retrier) NoteBusy(mv Move) {
	if _, ok := r.tracked[mv.VP]; ok {
		return
	}
	r.tracked[mv.VP] = struct{}{}
	r.pending = append(r.pending, retryEntry{mv: mv, due: r.now + uint64(retryBackoffBase)})
}

// Pending returns the number of pages queued for retry.
func (r *Retrier) Pending() int { return len(r.pending) }

// Stats returns the lifetime totals.
func (r *Retrier) Stats() RetryStats { return r.stats }

// RunEpoch resubmits due entries (oldest first, up to the budget)
// through the engine and reschedules or abandons the failures. The
// returned cycle cost is the retry batch's full migration cost; the
// caller charges it to the owning app like any other background
// migration work.
func (r *Retrier) RunEpoch(epoch uint64) RetryEpoch {
	r.now = epoch
	if len(r.pending) == 0 {
		return RetryEpoch{}
	}

	// Split pending into this epoch's batch and the remainder. keep
	// reuses the pending backing array: the write index never passes
	// the read index.
	r.moves = r.moves[:0]
	r.batch = r.batch[:0]
	keep := r.pending[:0]
	for _, ent := range r.pending {
		if ent.due <= epoch && len(r.moves) < retryBudget {
			r.moves = append(r.moves, ent.mv)
			r.batch = append(r.batch, ent)
		} else {
			keep = append(keep, ent)
		}
	}
	r.pending = keep
	if len(r.moves) == 0 {
		return RetryEpoch{Pending: len(r.pending)}
	}

	eng := r.eng
	eng.ctx = ctxRetry
	res := eng.MigrateSync(r.moves)
	eng.ctx = ctxSync
	ep := RetryEpoch{Retried: len(r.moves), Cycles: res.Cycles()}
	for i, ent := range r.batch {
		switch res.Outcomes[i] {
		case Busy:
			ent.attempts++
			if ent.attempts >= retryMaxAttempts {
				delete(r.tracked, ent.mv.VP)
				ep.GaveUp++
				continue
			}
			ent.due = epoch + uint64(min(retryBackoffBase<<ent.attempts, retryBackoffCap))
			r.pending = append(r.pending, ent)
			ep.StillBusy++
		case Moved, Remapped, AlreadyThere:
			// AlreadyThere means the page reached its target some other
			// way (a later policy decision); either way it is resolved.
			delete(r.tracked, ent.mv.VP)
			ep.Recovered++
		default: // NotMapped, NoFrame: no longer migratable — abandon.
			delete(r.tracked, ent.mv.VP)
			ep.GaveUp++
		}
	}
	ep.Pending = len(r.pending)

	r.stats.Retried += uint64(ep.Retried)
	r.stats.Recovered += uint64(ep.Recovered)
	r.stats.GaveUp += uint64(ep.GaveUp)
	r.emit(ep)
	return ep
}

// emit publishes the epoch's retry telemetry on the engine's sink.
func (r *Retrier) emit(ep RetryEpoch) {
	cfg := r.eng.Config()
	if obs.Enabled(cfg.Obs, obs.EvMigrateRetry) {
		cfg.Obs.Event(obs.E(obs.EvMigrateRetry, cfg.Owner, "migrate",
			sim.CyclesToDuration(ep.Cycles),
			obs.F("retried", float64(ep.Retried)),
			obs.F("recovered", float64(ep.Recovered)),
			obs.F("still_busy", float64(ep.StillBusy)),
			obs.F("pending", float64(ep.Pending)),
			obs.F("cycles", ep.Cycles)))
	}
	if ep.GaveUp > 0 && obs.Enabled(cfg.Obs, obs.EvMigrateGiveup) {
		cfg.Obs.Event(obs.E(obs.EvMigrateGiveup, cfg.Owner, "migrate", 0,
			obs.F("pages", float64(ep.GaveUp)),
			obs.F("max_attempts", float64(retryMaxAttempts))))
	}
}
