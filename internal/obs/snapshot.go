package obs

import (
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/metrics"
	"vulcan/internal/sim"
)

// Snapshot appends the recorder's buffered telemetry: the type filter,
// the event buffer in emission order, the per-epoch registry samples,
// and the registry itself. The clock binding is construction wiring and
// is kept by the restoring recorder.
func (r *Recorder) Snapshot(e *checkpoint.Encoder) {
	e.U32(uint32(r.filter))
	e.Int(len(r.events))
	for _, ev := range r.events {
		snapshotEvent(e, ev)
	}
	e.Int(len(r.log.sids))
	r.log.each(func(epoch int, t sim.Time, sids []uint32, vals []float64) {
		for i, sid := range sids {
			e.Int(epoch)
			e.I64(int64(t))
			e.String(r.log.names[sid])
			e.F64(vals[i])
		}
	})
	r.reg.Snapshot(e)
}

// Restore reads the telemetry back in place.
func (r *Recorder) Restore(d *checkpoint.Decoder) error {
	r.filter = TypeSet(d.U32())
	n := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	r.events = make([]Event, 0, n)
	for i := 0; i < n; i++ {
		ev, err := restoreEvent(d)
		if err != nil {
			return err
		}
		r.events = append(r.events, ev)
	}
	n = d.Length(24)
	if d.Err() != nil {
		return d.Err()
	}
	r.log.runs = nil
	r.log.sids = make([]uint32, 0, n)
	r.log.vals = make([]float64, 0, n)
	for i := 0; i < n; i++ {
		epoch, t := d.Int(), sim.Time(d.I64())
		id := d.String()
		v := d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		r.log.add(epoch, t, r.log.intern(id), v)
	}
	return r.reg.Restore(d)
}

func snapshotEvent(e *checkpoint.Encoder, ev Event) {
	e.I64(int64(ev.Time))
	e.U8(uint8(ev.Type))
	e.String(ev.App)
	e.String(ev.Track)
	e.I64(int64(ev.Dur))
	e.String(ev.Note)
	e.Int(len(ev.Fields))
	for _, f := range ev.Fields {
		e.String(f.Key)
		e.F64(f.Val)
	}
}

func restoreEvent(d *checkpoint.Decoder) (Event, error) {
	var ev Event
	ev.Time = sim.Time(d.I64())
	ev.Type = EventType(d.U8())
	ev.App = d.String()
	ev.Track = d.String()
	ev.Dur = sim.Duration(d.I64())
	ev.Note = d.String()
	n := d.Length(9)
	if d.Err() != nil {
		return ev, d.Err()
	}
	if ev.Type >= NumEventTypes {
		return ev, fmt.Errorf("obs: unknown event type %d in checkpoint", ev.Type)
	}
	if n > 0 {
		ev.Fields = make([]Field, 0, n)
		for i := 0; i < n; i++ {
			f := Field{Key: d.String(), Val: d.F64()}
			if d.Err() != nil {
				return ev, d.Err()
			}
			ev.Fields = append(ev.Fields, f)
		}
	}
	return ev, d.Err()
}

// Snapshot appends every instrument in sorted-identity order.
func (r *Registry) Snapshot(e *checkpoint.Encoder) {
	e.Int(len(r.gaugeList.ids))
	for i, id := range r.gaugeList.ids {
		e.String(id)
		e.F64(r.gaugeList.vals[i].value())
	}
	e.Int(len(r.histoList.ids))
	for i, id := range r.histoList.ids {
		e.String(id)
		r.histoList.vals[i].h.Snapshot(e)
	}
}

// Restore reads the instruments back in place, replacing any existing
// ones. Each kind's identities must be strictly ascending, the order
// Snapshot writes, so an accepted blob re-encodes byte for byte.
func (r *Registry) Restore(d *checkpoint.Decoder) error {
	var prev string
	n := d.Length(12)
	if d.Err() != nil {
		return d.Err()
	}
	r.gauges = make(map[string]*Gauge, n)
	r.gaugeList = sortedIDs[*Gauge]{}
	for i := 0; i < n; i++ {
		id := d.String()
		v := d.F64()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && id <= prev {
			return fmt.Errorf("obs: gauge %q out of order in checkpoint", id)
		}
		prev = id
		g := &Gauge{v: v}
		r.gauges[id] = g
		r.gaugeList.insert(id, g)
	}
	n = d.Length(28)
	if d.Err() != nil {
		return d.Err()
	}
	r.histos = make(map[string]*metrics.Histogram, n)
	r.histoList = sortedIDs[*histoRows]{}
	for i := 0; i < n; i++ {
		id := d.String()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && id <= prev {
			return fmt.Errorf("obs: histogram %q out of order in checkpoint", id)
		}
		prev = id
		h, err := metrics.RestoreHistogram(d)
		if err != nil {
			return err
		}
		r.histos[id] = h
		r.histoList.insert(id, newHistoRows(id, h))
	}
	return nil
}
