package metrics

import (
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// Snapshot appends the running summary's accumulator state.
func (r *Running) Snapshot(e *checkpoint.Encoder) {
	e.Int(r.n)
	e.F64(r.mean)
	e.F64(r.m2)
}

// Restore reads the accumulator back in place.
func (r *Running) Restore(d *checkpoint.Decoder) error {
	r.n = d.Int()
	r.mean = d.F64()
	r.m2 = d.F64()
	if d.Err() != nil {
		return d.Err()
	}
	if r.n < 0 {
		return fmt.Errorf("metrics: negative observation count %d", r.n)
	}
	return nil
}

// Snapshot appends the average's state. Alpha is construction
// configuration, not state, and is kept by the restoring EMA.
func (e *EMA) Snapshot(enc *checkpoint.Encoder) {
	enc.F64(e.value)
	enc.Bool(e.primed)
}

// Restore reads the average back in place.
func (e *EMA) Restore(d *checkpoint.Decoder) error {
	e.value = d.F64()
	e.primed = d.Bool()
	return d.Err()
}

// Snapshot appends the histogram's shape and bucket counts, so a
// restore can rebuild it without knowing the construction arguments.
func (h *Histogram) Snapshot(e *checkpoint.Encoder) {
	e.F64(h.min)
	e.F64(h.max)
	e.Int(len(h.buckets))
	for _, b := range h.buckets {
		e.U64(b)
	}
	e.U64(h.count)
}

// RestoreHistogram reads a histogram written by Snapshot.
func RestoreHistogram(d *checkpoint.Decoder) (*Histogram, error) {
	min := d.F64()
	max := d.F64()
	n := d.Length(8)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n <= 0 || max <= min {
		return nil, fmt.Errorf("metrics: invalid histogram shape [%v,%v) n=%d", min, max, n)
	}
	h := NewHistogram(min, max, n)
	for i := range h.buckets {
		h.buckets[i] = d.U64()
	}
	h.count = d.U64()
	return h, d.Err()
}

// Snapshot appends the tracker's cumulative allocations.
func (c *CFITracker) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(c.x))
	for _, x := range c.x {
		e.F64(x)
	}
}

// Restore reads the allocations back in place; the workload count is
// fixed at construction and must match.
func (c *CFITracker) Restore(d *checkpoint.Decoder) error {
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(c.x) {
		return fmt.Errorf("metrics: checkpoint tracks %d workloads, tracker has %d", n, len(c.x))
	}
	for i := range c.x {
		c.x[i] = d.F64()
	}
	return d.Err()
}

// Snapshot appends the series' points.
func (s *Series) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(s.points))
	for _, p := range s.points {
		e.I64(int64(p.T))
		e.F64(p.V)
	}
}

// Restore reads the points back in place.
func (s *Series) Restore(d *checkpoint.Decoder) error {
	n := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	s.points = make([]Point, 0, n)
	var last sim.Time
	for i := 0; i < n; i++ {
		p := Point{T: sim.Time(d.I64()), V: d.F64()}
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && p.T < last {
			return fmt.Errorf("metrics: series %q checkpoint time going backwards", s.Name)
		}
		last = p.T
		s.points = append(s.points, p)
	}
	return nil
}

// Snapshot appends every series in creation order.
func (r *Recorder) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(r.order))
	for _, name := range r.order {
		e.String(name)
		r.series[name].Snapshot(e)
	}
}

// Restore reads the series back in place, replacing any existing ones
// but keeping the clock binding.
func (r *Recorder) Restore(d *checkpoint.Decoder) error {
	n := d.Length(8)
	if d.Err() != nil {
		return d.Err()
	}
	r.series = make(map[string]*Series, n)
	r.order = r.order[:0]
	for i := 0; i < n; i++ {
		name := d.String()
		if d.Err() != nil {
			return d.Err()
		}
		if _, dup := r.series[name]; dup {
			return fmt.Errorf("metrics: duplicate series %q in checkpoint", name)
		}
		s := NewSeries(name)
		if err := s.Restore(d); err != nil {
			return err
		}
		r.series[name] = s
		r.order = append(r.order, name)
	}
	return nil
}
