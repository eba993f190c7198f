package mem

import (
	"encoding/binary"
	"fmt"

	"vulcan/internal/checkpoint"
)

// Snapshot appends the tier's durable state: the usage count and the
// free stack (order matters — the LIFO hand-out order is part of the
// determinism contract). The configuration is not serialized; it is
// reconstructed from the run's Config, and Restore validates that the
// capacities agree.
func (t *Tier) Snapshot(e *checkpoint.Encoder) {
	e.Int(t.cfg.CapacityPages)
	e.Int(t.used)
	e.Int(len(t.free))
	for _, idx := range t.free {
		e.U32(idx)
	}
}

// Restore reads the tier state back in place. Every free frame must be
// in range and listed once: a repeated frame would later be handed out
// to two owners.
func (t *Tier) Restore(d *checkpoint.Decoder) error {
	capacity := d.Int()
	used := d.Int()
	n := d.Length(4)
	if d.Err() != nil {
		return d.Err()
	}
	if capacity != t.cfg.CapacityPages {
		return fmt.Errorf("mem: tier %s capacity %d in checkpoint, %d configured",
			t.id, capacity, t.cfg.CapacityPages)
	}
	if used < 0 || used+n != capacity {
		return fmt.Errorf("mem: tier %s used %d + free %d != capacity %d",
			t.id, used, n, capacity)
	}
	free := make([]uint32, n)
	seen := make([]uint64, (capacity+63)/64) // sized by the configuration, never by the input
	recs := d.Fixed(4 * n)                   // Length checked that the section holds them
	for i := range free {
		idx := binary.LittleEndian.Uint32(recs[4*i:])
		if int(idx) >= capacity {
			return fmt.Errorf("mem: tier %s free frame %d out of range", t.id, idx)
		}
		if seen[idx/64]&(1<<(idx%64)) != 0 {
			return fmt.Errorf("mem: tier %s free frame %d listed twice", t.id, idx)
		}
		seen[idx/64] |= 1 << (idx % 64)
		free[i] = idx
	}
	t.used = used
	t.free = free
	return nil
}

// Snapshot appends every tier in ID order, reserving the exact size
// first: the free stacks are most of a checkpoint's mem section.
func (ts *Tiers) Snapshot(e *checkpoint.Encoder) {
	n := 0
	for _, t := range ts.tiers {
		n += 8 + 8 + 8 + 4*len(t.free)
	}
	e.Grow(n)
	for _, t := range ts.tiers {
		t.Snapshot(e)
	}
}

// Restore reads every tier back in ID order.
func (ts *Tiers) Restore(d *checkpoint.Decoder) error {
	for _, t := range ts.tiers {
		if err := t.Restore(d); err != nil {
			return err
		}
	}
	return nil
}
