package trace

import (
	"fmt"

	"vulcan/internal/checkpoint"
)

// Snapshot implements checkpoint.Snapshotter: the replay position is
// the replayer's only durable state (the trace itself comes from the
// run configuration).
func (r *Replayer) Snapshot(e *checkpoint.Encoder) {
	e.Int(r.cursor)
}

// Restore implements checkpoint.Snapshotter.
func (r *Replayer) Restore(d *checkpoint.Decoder) error {
	cursor := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if cursor < 0 || cursor >= len(r.t.refs) {
		return fmt.Errorf("trace: replay cursor %d outside [0,%d)", cursor, len(r.t.refs))
	}
	r.cursor = cursor
	return nil
}
