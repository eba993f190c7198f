package profile

import (
	"fmt"
	"math/bits"

	"vulcan/internal/checkpoint"
	"vulcan/internal/dense"
	"vulcan/internal/pagetable"
)

// SnapshotVersion is the wire version SnapshotProfiler writes and the
// only one RestoreProfiler reads (the "app.N.profiler" checkpoint section
// version). Version 2 encodes the dense stores, most notably run-length
// heat entries; the version-1 map layout is no longer readable.
// Version 3 drops the per-epoch sample and fault counters, which are
// zero at every epoch boundary.
const SnapshotVersion = 3

// SnapshotProfiler appends p's durable state, tagged with the profiler
// name so RestoreProfiler can verify the constructed profiler matches.
func SnapshotProfiler(e *checkpoint.Encoder, p Profiler) {
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		panic(fmt.Sprintf("profile: profiler %q is not snapshottable", p.Name()))
	}
	e.String(p.Name())
	s.Snapshot(e)
}

// RestoreProfiler reads state written by SnapshotProfiler back into p,
// a freshly-constructed profiler. version is the section version
// recorded in the checkpoint container; anything but SnapshotVersion is
// rejected, as is a tag naming another profiler.
func RestoreProfiler(d *checkpoint.Decoder, p Profiler, version uint32) error {
	if version != SnapshotVersion {
		return fmt.Errorf("profile: unsupported profiler snapshot version %d", version)
	}
	tag := d.String()
	if d.Err() != nil {
		return d.Err()
	}
	if tag != p.Name() {
		return fmt.Errorf("profile: checkpoint holds a %q profiler, restoring into %q",
			tag, p.Name())
	}
	s, ok := p.(checkpoint.Snapshotter)
	if !ok {
		return fmt.Errorf("profile: profiler %q is not snapshottable", p.Name())
	}
	return s.Restore(d)
}

// Snapshot appends the heat store's tracked pages as runs of
// consecutive page numbers: total entry count, run count, then per run
// the start page, length, and length×(heat, reads, writes). Dense
// working sets compress to a handful of run headers, and restore can
// validate monotonicity structurally.
func (h *heatStore) Snapshot(e *checkpoint.Encoder) {
	// The first pass measures the runs, so the second can write each
	// run's header before its stats; the store is immutable between the
	// passes, so the two always agree.
	var runs []int
	prev := pagetable.VPage(0)
	h.forEachLive(func(vp pagetable.VPage, _ *heatCell) {
		if len(runs) == 0 || vp != prev+1 {
			runs = append(runs, 0)
		}
		runs[len(runs)-1]++
		prev = vp
	})
	// trackedPages is exactly the live-entry count forEachLive visits.
	e.Grow(8 + 8 + 16*len(runs) + 24*h.trackedPages)
	e.Int(h.trackedPages)
	e.Int(len(runs))

	run, left := 0, 0
	h.forEachLive(func(vp pagetable.VPage, c *heatCell) {
		if left == 0 {
			left = runs[run]
			run++
			e.U64(uint64(vp))
			e.Int(left)
		}
		left--
		e.F64(c.heat)
		e.F64(c.reads)
		e.F64(c.writes)
	})
}

// forEachLive calls fn with every tracked page and its cell, in
// ascending order.
func (h *heatStore) forEachLive(fn func(vp pagetable.VPage, c *heatCell)) {
	for ci, c := h.dir.Next(0); c != nil; ci, c = h.dir.Next(ci + 1) {
		if c.live == 0 {
			continue
		}
		base := chunkBase(ci)
		for w, word := range &c.mask {
			for ; word != 0; word &= word - 1 {
				j := w<<6 | bits.TrailingZeros64(word)
				fn(base|pagetable.VPage(j), &c.cells[j])
			}
		}
	}
}

// Restore reads the run-length heat layout back in place.
func (h *heatStore) Restore(d *checkpoint.Decoder) error {
	entries := d.Length(24)
	runs := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	h.dir = dense.Dir[heatChunk]{}
	h.trackedPages = 0
	total := 0
	prevEnd := pagetable.VPage(0)
	firstRun := true
	for r := 0; r < runs; r++ {
		start := pagetable.VPage(d.U64())
		n := d.Length(24)
		if d.Err() != nil {
			return d.Err()
		}
		if n == 0 {
			return fmt.Errorf("profile: empty heat run at page %d", start)
		}
		if !firstRun && start <= prevEnd+1 {
			// Snapshot merges touching runs, so a gap always separates them.
			return fmt.Errorf("profile: heat run at page %d overlaps or touches the previous run", start)
		}
		if start > pagetable.MaxVPage || pagetable.VPage(uint64(start)+uint64(n)-1) > pagetable.MaxVPage {
			return fmt.Errorf("profile: heat run at page %d out of range", start)
		}
		firstRun = false
		for i := 0; i < n; i++ {
			vp := start + pagetable.VPage(i)
			heat := d.F64()
			reads := d.F64()
			writes := d.F64()
			if d.Err() != nil {
				return d.Err()
			}
			if heat == 0 {
				return fmt.Errorf("profile: zero-heat entry for page %d", vp)
			}
			if !h.setRaw(vp, heat, reads, writes) {
				return fmt.Errorf("profile: duplicate heat entry for page %d", vp)
			}
		}
		prevEnd = start + pagetable.VPage(n) - 1
		total += n
	}
	if total != entries {
		return fmt.Errorf("profile: heat runs hold %d entries, header says %d", total, entries)
	}
	return nil
}

// Snapshot implements checkpoint.Snapshotter: the sampler's RNG, then
// the heat runs. Hybrid's sweep keeps no state between epochs, so
// Hybrid checkpoints through this codec too.
func (p *PEBS) Snapshot(e *checkpoint.Encoder) {
	p.rng.Snapshot(e)
	p.heatStore.Snapshot(e)
}

// Restore implements checkpoint.Snapshotter.
func (p *PEBS) Restore(d *checkpoint.Decoder) error {
	if err := p.rng.Restore(d); err != nil {
		return err
	}
	return p.heatStore.Restore(d)
}

// Snapshot implements checkpoint.Snapshotter: the heat runs, then the
// poison window as a count and ascending pages, then the cursor.
func (h *HintFault) Snapshot(e *checkpoint.Encoder) {
	h.heatStore.Snapshot(e)
	e.Int(h.poisoned.count)
	h.poisoned.forEach(func(vp pagetable.VPage) {
		e.U64(uint64(vp))
	})
	e.U64(uint64(h.cursor))
}

// Restore implements checkpoint.Snapshotter.
func (h *HintFault) Restore(d *checkpoint.Decoder) error {
	if err := h.heatStore.Restore(d); err != nil {
		return err
	}
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	h.poisoned = pageBitmap{}
	prev := pagetable.VPage(0)
	for i := 0; i < n; i++ {
		vp := pagetable.VPage(d.U64())
		if d.Err() != nil {
			return d.Err()
		}
		if vp > pagetable.MaxVPage {
			return fmt.Errorf("profile: poisoned page %d out of range", vp)
		}
		if i > 0 && vp <= prev {
			// Snapshot writes the window in ascending order.
			return fmt.Errorf("profile: poisoned page %d duplicated or out of order", vp)
		}
		h.poisoned.orWord(vp&^63, 1<<(vp&63), 1)
		prev = vp
	}
	h.cursor = pagetable.VPage(d.U64())
	return d.Err()
}
