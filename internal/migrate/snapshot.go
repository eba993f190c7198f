package migrate

import (
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// Snapshot appends the engine's durable state: the batch sequence
// number (the fault-injection coordinate) and the shadow store. The
// scope bitmap, scope lists and staged batch are per-call scratch,
// empty between MigrateSync calls by construction.
func (e *Engine) Snapshot(enc *checkpoint.Encoder) {
	enc.U64(e.batchSeq)
	e.shadows.Snapshot(enc)
}

// Restore reads the engine state back in place.
func (e *Engine) Restore(d *checkpoint.Decoder) error {
	e.batchSeq = d.U64()
	return e.shadows.Restore(d)
}

// Snapshot appends the store's shadow frames in ascending page order
// plus the lifetime counters. The dense map iterates ascending by
// construction, so the wire bytes match the previous sorted encoding.
func (s *shadowStore) Snapshot(e *checkpoint.Encoder) {
	e.Int(s.frames.Len())
	s.frames.ForEach(func(vp, w uint64) {
		f := unpackFrame(w)
		e.U64(vp)
		e.U8(uint8(f.Tier))
		e.U32(f.Index)
	})
	e.U64(s.consumed)
	e.U64(s.dropped)
}

// Restore reads the store back in place.
func (s *shadowStore) Restore(d *checkpoint.Decoder) error {
	n := d.Length(13)
	if d.Err() != nil {
		return d.Err()
	}
	s.frames.Clear()
	prev := pagetable.VPage(0)
	for i := 0; i < n; i++ {
		vp := pagetable.VPage(d.U64())
		f := mem.Frame{Tier: mem.TierID(d.U8()), Index: d.U32()}
		if d.Err() != nil {
			return d.Err()
		}
		if vp > pagetable.MaxVPage {
			return fmt.Errorf("migrate: shadow for page %d out of range", vp)
		}
		if f.IsNil() {
			return fmt.Errorf("migrate: shadow for page %d on invalid tier", vp)
		}
		if i > 0 && vp <= prev {
			// Snapshot writes the shadows in ascending page order.
			return fmt.Errorf("migrate: shadow for page %d duplicated or out of order", vp)
		}
		s.frames.Set(uint64(vp), packFrame(f))
		prev = vp
	}
	s.consumed = d.U64()
	s.dropped = d.U64()
	return d.Err()
}

// Snapshot appends the migrator's durable state: the pending queue (in
// order), the lifetime stats, and the copy-retry RNG. The queued index
// and commit buffer are derived/scratch.
func (a *AsyncMigrator) Snapshot(e *checkpoint.Encoder) {
	a.cfg.RNG.Snapshot(e)
	e.Int(len(a.pending))
	for _, mv := range a.pending {
		e.U64(uint64(mv.VP))
		e.U8(uint8(mv.To))
	}
	e.U64(a.stats.Moved)
	e.U64(a.stats.Remapped)
	e.U64(a.stats.Aborted)
	e.U64(a.stats.Failed)
	e.F64(a.stats.CyclesUsed)
}

// Restore reads the migrator state back in place, rebuilding the
// dedup index from the pending queue.
func (a *AsyncMigrator) Restore(d *checkpoint.Decoder) error {
	if err := a.cfg.RNG.Restore(d); err != nil {
		return err
	}
	n := d.Length(9)
	if d.Err() != nil {
		return d.Err()
	}
	a.pending = a.pending[:0]
	a.queued.Clear()
	for i := 0; i < n; i++ {
		mv := Move{VP: pagetable.VPage(d.U64()), To: mem.TierID(d.U8())}
		if d.Err() != nil {
			return d.Err()
		}
		if mv.VP > pagetable.MaxVPage {
			return fmt.Errorf("migrate: pending move for page %d out of range", mv.VP)
		}
		if !mv.To.Valid() {
			return fmt.Errorf("migrate: pending move to invalid tier %d", mv.To)
		}
		if a.queued.Get(uint64(mv.VP)) != 0 {
			return fmt.Errorf("migrate: duplicate pending move for page %d", mv.VP)
		}
		a.queued.Set(uint64(mv.VP), uint64(len(a.pending))+1)
		a.pending = append(a.pending, mv)
	}
	a.stats.Moved = d.U64()
	a.stats.Remapped = d.U64()
	a.stats.Aborted = d.U64()
	a.stats.Failed = d.U64()
	a.stats.CyclesUsed = d.F64()
	return d.Err()
}

// Snapshot appends the retrier's durable state: the epoch counter, the
// pending queue in insertion order (with attempts and due epochs) and
// the lifetime stats. The tracked set is derived from pending.
func (r *Retrier) Snapshot(e *checkpoint.Encoder) {
	e.U64(r.now)
	e.Int(len(r.pending))
	for _, en := range r.pending {
		e.U64(uint64(en.mv.VP))
		e.U8(uint8(en.mv.To))
		e.Int(en.attempts)
		e.U64(en.due)
	}
	e.U64(r.stats.Retried)
	e.U64(r.stats.Recovered)
	e.U64(r.stats.GaveUp)
}

// Restore reads the retrier state back in place.
func (r *Retrier) Restore(d *checkpoint.Decoder) error {
	r.now = d.U64()
	n := d.Length(25)
	if d.Err() != nil {
		return d.Err()
	}
	r.pending = r.pending[:0]
	r.tracked = make(map[pagetable.VPage]struct{}, n)
	for i := 0; i < n; i++ {
		en := retryEntry{
			mv:       Move{VP: pagetable.VPage(d.U64()), To: mem.TierID(d.U8())},
			attempts: d.Int(),
			due:      d.U64(),
		}
		if d.Err() != nil {
			return d.Err()
		}
		if en.mv.VP > pagetable.MaxVPage {
			return fmt.Errorf("migrate: retry entry for page %d out of range", en.mv.VP)
		}
		if !en.mv.To.Valid() {
			return fmt.Errorf("migrate: retry entry to invalid tier %d", en.mv.To)
		}
		if _, dup := r.tracked[en.mv.VP]; dup {
			return fmt.Errorf("migrate: duplicate retry entry for page %d", en.mv.VP)
		}
		r.tracked[en.mv.VP] = struct{}{}
		r.pending = append(r.pending, en)
	}
	r.stats.Retried = d.U64()
	r.stats.Recovered = d.U64()
	r.stats.GaveUp = d.U64()
	return d.Err()
}
