package tlb

import (
	"encoding/binary"
	"fmt"

	"vulcan/internal/checkpoint"
)

// Snapshot appends the TLB's durable state: the full tag array (its
// contents determine future hit/miss sequences) and the cumulative
// counters.
func (t *TLB) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(t.tags))
	for _, tag := range t.tags {
		e.U64(tag)
	}
	e.U64(t.stats.Hits)
	e.U64(t.stats.Misses)
	e.U64(t.stats.Invalidations)
	e.U64(t.stats.DelayedAcks)
}

// SnapshotSize is the number of bytes Snapshot appends: the entry
// count, the tags and four counters.
func (t *TLB) SnapshotSize() int { return 8 + 8*len(t.tags) + 4*8 }

// Restore reads the TLB state back in place. The entry count must match
// the constructed TLB (it is fixed by configuration, not state).
func (t *TLB) Restore(d *checkpoint.Decoder) error {
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(t.tags) {
		return fmt.Errorf("tlb: %d entries in checkpoint, %d configured", n, len(t.tags))
	}
	recs := d.Fixed(8 * n) // Length checked that the section holds them
	for i := range t.tags {
		t.tags[i] = binary.LittleEndian.Uint64(recs[8*i:])
	}
	t.stats.Hits = d.U64()
	t.stats.Misses = d.U64()
	t.stats.Invalidations = d.U64()
	t.stats.DelayedAcks = d.U64()
	return d.Err()
}
