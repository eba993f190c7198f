package obs

import (
	"io"

	"vulcan/internal/sim"
)

// Recorder is the standard Sink. In batch mode (the default) it buffers
// events, hosts the metrics registry and snapshots the registry once
// per epoch; the batch exporters replay both through the streaming
// sinks. In streaming mode (StreamTo) nothing is buffered: events
// forward straight to a TraceStream and each epoch flush appends the
// registry rows to a CSVStream — the long-running daemon's
// memory-bounded path.
// All timestamps come from the bound sim.Clock; a recorder with no
// clock stamps t=0 (useful in unit tests that set Event.Time
// explicitly).
type Recorder struct {
	clock  *sim.Clock //vulcan:nosnap construction wiring; the restoring recorder keeps its live clock binding
	filter TypeSet
	events []Event
	reg    *Registry
	log    sampleLog

	// trace/csv, when set (StreamTo), switch the recorder to streaming
	// mode.
	trace *TraceStream //vulcan:nosnap streaming sink wiring; recovery resumes streams from their own snapshots
	csv   *CSVStream   //vulcan:nosnap streaming sink wiring; recovery resumes streams from their own snapshots

	rows []metricRow //vulcan:nosnap FlushEpoch's registry row buffer, dead between flushes
}

// sampleLog is the batch recorder's per-epoch registry samples. Each
// flush appends one run: the rows it took, all at one (epoch, t). A row
// is an interned identity and its value, 12 bytes, and holds no pointer
// into the registry.
type sampleLog struct {
	runs []sampleRun
	sids []uint32  // row identities, indices into names
	vals []float64 // row values, beside sids

	// names and index intern identities; they only grow, so an
	// identity a registry row has cached stays valid across Restore.
	names []string
	index map[string]uint32
}

// sampleRun is one run of consecutive samples sharing (epoch, t).
type sampleRun struct {
	epoch int
	t     sim.Time
	end   int // one past the run's last row in sids/vals
}

func newSampleLog() sampleLog { return sampleLog{index: map[string]uint32{}} }

// intern returns id's index in names, adding it on first sight.
func (l *sampleLog) intern(id string) uint32 {
	sid, ok := l.index[id]
	if !ok {
		sid = uint32(len(l.names))
		l.names = append(l.names, id)
		l.index[id] = sid
	}
	return sid
}

// add appends one sample, opening a new run unless the last run has
// the same (epoch, t).
func (l *sampleLog) add(epoch int, t sim.Time, sid uint32, v float64) {
	if n := len(l.runs); n == 0 || l.runs[n-1].epoch != epoch || l.runs[n-1].t != t {
		l.runs = append(l.runs, sampleRun{epoch: epoch, t: t})
	}
	l.sids = append(l.sids, sid)
	l.vals = append(l.vals, v) //vulcan:allowalloc batch mode keeps every sample; growth amortized
	l.runs[len(l.runs)-1].end = len(l.sids)
}

// each calls fn once per run with the run's rows, in order.
func (l *sampleLog) each(fn func(epoch int, t sim.Time, sids []uint32, vals []float64)) {
	start := 0
	for _, run := range l.runs {
		fn(run.epoch, run.t, l.sids[start:run.end], l.vals[start:run.end])
		start = run.end
	}
}

// NewRecorder returns a recorder that admits every event type.
func NewRecorder() *Recorder {
	return &Recorder{reg: NewRegistry(), log: newSampleLog()}
}

// BindClock attaches the simulation clock; the system calls this during
// construction so emission sites never handle clocks themselves.
func (r *Recorder) BindClock(c *sim.Clock) { r.clock = c }

// SetFilter restricts recording to the given type set (zero = all).
func (r *Recorder) SetFilter(f TypeSet) { r.filter = f }

// Enabled implements Sink.
func (r *Recorder) Enabled(t EventType) bool { return r.filter.Enabled(t) }

// StreamTo switches the recorder to streaming mode: events forward to
// ts as they are emitted and each epoch flush appends the registry rows
// to cs (either stream may be nil to stream only the other artifact).
// Nothing is buffered, so the batch exporters have nothing to export —
// the streams are the artifacts.
func (r *Recorder) StreamTo(ts *TraceStream, cs *CSVStream) {
	r.trace = ts
	r.csv = cs
}

// Event implements Sink: the event is stamped with the sim clock's
// current time (unless the caller pre-stamped it) and buffered, or
// forwarded straight to the trace stream in streaming mode.
func (r *Recorder) Event(e Event) {
	if !r.filter.Enabled(e.Type) {
		return
	}
	if e.Time == 0 && r.clock != nil {
		e.Time = r.clock.Now()
	}
	if r.trace != nil || r.csv != nil {
		if r.trace != nil {
			r.trace.Event(e)
		}
		return
	}
	r.events = append(r.events, e)
}

// Metrics returns the registry (see RegistryOf).
func (r *Recorder) Metrics() *Registry { return r.reg }

// Events returns the buffered events in emission order.
func (r *Recorder) Events() []Event { return r.events }

// FlushEpoch closes one epoch's telemetry. In batch mode it snapshots
// every registry instrument as one CSV row set. In streaming mode the
// rows append to the CSV stream and both streams flush — the explicit
// boundary at which the on-disk artifacts are consistent. The system
// calls it at each epoch boundary, before the clock advances, so rows
// carry the epoch's start time. A streaming flush over a fixed
// instrument set allocates nothing.
//
//vulcan:hotpath
func (r *Recorder) FlushEpoch(epoch int) {
	var t sim.Time
	if r.clock != nil {
		t = r.clock.Now()
	}
	r.rows = r.reg.snapshot(r.rows[:0])
	if r.trace != nil || r.csv != nil {
		if r.csv != nil {
			r.csv.rows(epoch, t, r.rows)
			r.csv.Flush()
		}
		if r.trace != nil {
			r.trace.Flush()
		}
		return
	}
	for _, row := range r.rows {
		if row.memo.sid == 0 {
			row.memo.sid = r.log.intern(row.ID) + 1
		}
		r.log.add(epoch, t, row.memo.sid-1, row.Val)
	}
}

// WriteMetricsCSV emits the per-epoch registry snapshots by replaying
// them through a CSVStream: epoch, sim time (ns), metric identity,
// value, in (epoch, sorted metric identity) order — never map order.
// Each run's "epoch,t_ns," prefix is formatted once.
func (r *Recorder) WriteMetricsCSV(w io.Writer) error {
	cs := NewCSVStream(w)
	r.log.each(func(epoch int, t sim.Time, sids []uint32, vals []float64) {
		cs.begin(epoch, t)
		for i, sid := range sids {
			cs.row(r.log.names[sid], vals[i])
		}
	})
	return cs.Flush()
}
