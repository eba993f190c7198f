package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// TraceStream is the incremental Chrome trace-event sink: records are
// written the moment they are emitted, so a long-running daemon's trace
// grows on disk epoch by epoch instead of materializing at shutdown.
// The batch exporter (Recorder.WriteChromeTrace) is a replay of the
// buffered events through this same stream, so the two paths are
// byte-identical by construction.
//
// Layout differs from a whole-run sorted export in one way only:
// process and thread metadata is emitted lazily, at the first record
// that needs the scope or lane, in emission order. The machine scope is
// pre-registered as pid 1 when the stream opens so every trace has a
// stable home process; app scopes take pid 2+ as they first appear.
// Lanes take tid 1+ per scope in first-use order (an empty track
// aliases the "events" lane). Chrome's JSON Array Format allows "M"
// metadata anywhere in the event stream, so Perfetto renders this
// identically to an upfront-metadata trace.
//
// Slices on one track are laid out back-to-back when several carry the
// same epoch-boundary timestamp: a per-track cursor shifts an
// overlapping slice to the end of the previous one, exactly as the
// batch exporter always did.
//
// The stream's layout state (scope/lane tables, cursors, byte offset)
// snapshots through the checkpoint container so a killed daemon can
// truncate the artifact to the last flush boundary and continue
// byte-identically.
type TraceStream struct {
	j jsonWriter

	first bool // no record separator needed yet

	pids     map[string]int
	pidOrder []string // scopes in pid-assignment order; pid = index+1

	tids     map[string]map[string]int
	tidOrder map[string][]string // lanes in tid-assignment order; tid = index+1

	cursor map[streamTrack]int64
}

// streamTrack identifies one layout track (one thread row in the
// rendered trace).
type streamTrack struct{ pid, tid int }

// NewTraceStream opens a trace stream on w: the JSON preamble and the
// machine process metadata are written immediately.
func NewTraceStream(w io.Writer) *TraceStream {
	ts := newTraceStream(w)
	ts.j.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	ts.pid("") // machine is always pid 1
	return ts
}

func newTraceStream(w io.Writer) *TraceStream {
	return &TraceStream{
		j:        jsonWriter{w: bufio.NewWriter(w)},
		first:    true,
		pids:     map[string]int{},
		tids:     map[string]map[string]int{},
		tidOrder: map[string][]string{},
		cursor:   map[streamTrack]int64{},
	}
}

// sep writes the record separator (comma for every record after the
// first) and the leading newline.
func (ts *TraceStream) sep() {
	if !ts.first {
		ts.j.raw(",")
	}
	ts.first = false
	ts.j.raw("\n")
}

// pid returns the scope's process id, assigning the next free pid and
// emitting the process_name metadata record on first use.
func (ts *TraceStream) pid(scope string) int {
	if p, ok := ts.pids[scope]; ok {
		return p
	}
	p := len(ts.pidOrder) + 1
	ts.pids[scope] = p
	ts.pidOrder = append(ts.pidOrder, scope)
	display := scope
	if display == "" {
		display = "machine"
	}
	ts.sep()
	ts.j.raw(`{"name":"process_name","ph":"M","pid":` + strconv.Itoa(p) +
		`,"tid":0,"args":{"name":`)
	ts.j.str(display)
	ts.j.raw(`}}`)
	return p
}

// tid returns the track's thread id within the scope, assigning the
// next free tid and emitting the thread_name metadata record on first
// use. An empty track aliases the "events" lane.
func (ts *TraceStream) tid(pid int, scope, track string) int {
	lane := track
	if lane == "" {
		lane = "events"
	}
	lanes := ts.tids[scope]
	if lanes == nil {
		lanes = map[string]int{}
		ts.tids[scope] = lanes
	}
	if t, ok := lanes[lane]; ok {
		return t
	}
	t := len(ts.tidOrder[scope]) + 1
	lanes[lane] = t
	ts.tidOrder[scope] = append(ts.tidOrder[scope], lane)
	ts.sep()
	ts.j.raw(`{"name":"thread_name","ph":"M","pid":` + strconv.Itoa(pid) +
		`,"tid":` + strconv.Itoa(t) + `,"args":{"name":`)
	ts.j.str(lane)
	ts.j.raw(`}}`)
	return t
}

// Event writes one event record: a complete ("X") slice when it has a
// duration, a thread-scoped instant ("i") otherwise. Fields and the
// note become args.
func (ts *TraceStream) Event(e Event) {
	p := ts.pid(e.App)
	t := ts.tid(p, e.App, e.Track)
	key := streamTrack{p, t}
	tns := int64(e.Time)
	if c := ts.cursor[key]; tns < c {
		tns = c
	}
	ts.sep()
	ts.j.raw(`{"name":`)
	ts.j.str(e.Type.String())
	ts.j.raw(`,"cat":`)
	ts.j.str(e.Type.String())
	if e.Dur > 0 {
		ts.j.raw(`,"ph":"X"`)
	} else {
		ts.j.raw(`,"ph":"i","s":"t"`)
	}
	ts.j.raw(`,"pid":` + strconv.Itoa(p) + `,"tid":` + strconv.Itoa(t))
	ts.j.raw(`,"ts":` + microseconds(tns))
	if e.Dur > 0 {
		ts.j.raw(`,"dur":` + microseconds(int64(e.Dur)))
		ts.cursor[key] = tns + int64(e.Dur)
	}
	ts.j.raw(`,"args":{`)
	argFirst := true
	arg := func() {
		if !argFirst {
			ts.j.raw(",")
		}
		argFirst = false
	}
	if e.Note != "" {
		arg()
		ts.j.raw(`"note":`)
		ts.j.str(e.Note)
	}
	for _, f := range e.Fields {
		arg()
		ts.j.str(f.Key)
		ts.j.raw(`:` + formatVal(f.Val))
	}
	ts.j.raw(`}}`)
}

// Flush pushes buffered bytes to the underlying writer — the explicit
// flush boundary the daemon invokes at each epoch so the on-disk
// artifact is consistent up to the last completed epoch.
func (ts *TraceStream) Flush() error {
	if ts.j.err != nil {
		return ts.j.err
	}
	return ts.j.w.Flush()
}

// Tell returns the number of bytes emitted so far; after a Flush it
// equals the underlying file's offset, which is what rolling
// checkpoints record so recovery can truncate a partially-written tail.
func (ts *TraceStream) Tell() int64 { return ts.j.n }

// Err returns the stream's latched write error, if any.
func (ts *TraceStream) Err() error { return ts.j.err }

// Close terminates the JSON document and flushes. The stream is
// unusable afterwards.
func (ts *TraceStream) Close() error {
	ts.j.raw("\n]}\n")
	if ts.j.err != nil {
		return ts.j.err
	}
	return ts.j.w.Flush()
}

// Snapshot appends the stream's layout state: byte offset, separator
// state, scope and lane tables in assignment order, and track cursors.
func (ts *TraceStream) Snapshot(e *checkpoint.Encoder) {
	e.I64(ts.j.n)
	e.Bool(ts.first)
	e.Int(len(ts.pidOrder))
	for _, scope := range ts.pidOrder {
		e.String(scope)
		lanes := ts.tidOrder[scope]
		e.Int(len(lanes))
		for _, lane := range lanes {
			e.String(lane)
		}
	}
	keys := make([]streamTrack, 0, len(ts.cursor))
	for k := range ts.cursor {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pid != keys[j].pid {
			return keys[i].pid < keys[j].pid
		}
		return keys[i].tid < keys[j].tid
	})
	e.Int(len(keys))
	for _, k := range keys {
		e.Int(k.pid)
		e.Int(k.tid)
		e.I64(ts.cursor[k])
	}
}

// ResumeTraceStream rebuilds a stream from a snapshot on w, which must
// already hold the first Tell() bytes of the original stream (recovery
// truncates the artifact to the recorded offset and reopens it in
// append mode). No preamble is written.
func ResumeTraceStream(w io.Writer, d *checkpoint.Decoder) (*TraceStream, error) {
	ts := newTraceStream(w)
	ts.j.n = d.I64()
	ts.first = d.Bool()
	nScopes := d.Length(8)
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := 0; i < nScopes; i++ {
		scope := d.String()
		ts.pids[scope] = i + 1
		ts.pidOrder = append(ts.pidOrder, scope)
		nLanes := d.Length(8)
		if d.Err() != nil {
			return nil, d.Err()
		}
		lanes := map[string]int{}
		for k := 0; k < nLanes; k++ {
			lane := d.String()
			lanes[lane] = k + 1
			ts.tidOrder[scope] = append(ts.tidOrder[scope], lane)
		}
		ts.tids[scope] = lanes
	}
	nCur := d.Length(24)
	if d.Err() != nil {
		return nil, d.Err()
	}
	for i := 0; i < nCur; i++ {
		k := streamTrack{pid: d.Int(), tid: d.Int()}
		ts.cursor[k] = d.I64()
	}
	return ts, d.Err()
}

// CSVStream is the incremental metrics sink: the long-format CSV header
// is written when the stream opens and each epoch's registry snapshot
// rows append as they flush. The batch exporter
// (Recorder.WriteMetricsCSV) replays its buffered samples through this
// stream, so streamed and batch CSV are byte-identical.
type CSVStream struct {
	w   *bufio.Writer
	n   int64
	err error
	buf []byte // row formatting scratch, reused across rows
}

// NewCSVStream opens a metrics CSV stream on w, writing the header.
func NewCSVStream(w io.Writer) *CSVStream {
	s := &CSVStream{w: bufio.NewWriter(w)}
	s.buf = append(s.buf, "epoch,t_ns,metric,value\n"...)
	s.write(s.buf)
	return s
}

//vulcan:hotpath
func (s *CSVStream) write(b []byte) {
	if s.err != nil {
		return
	}
	var k int
	k, s.err = s.w.Write(b)
	s.n += int64(k)
}

// Row appends one sample row: epoch, sim time (ns), metric identity,
// shortest-round-trip value.
func (s *CSVStream) Row(epoch int, t sim.Time, id string, val float64) {
	s.rows(epoch, t, []metricRow{{ID: id, Val: val}})
}

// rows appends one row per metric, all at one epoch and time: the
// "epoch,t_ns," prefix is formatted once, and each row is appended to
// the reused scratch buffer with strconv's Append functions.
//
//vulcan:hotpath
func (s *CSVStream) rows(epoch int, t sim.Time, rows []metricRow) {
	s.buf = strconv.AppendInt(s.buf[:0], int64(epoch), 10)
	s.buf = append(s.buf, ',')
	s.buf = strconv.AppendInt(s.buf, int64(t), 10)
	s.buf = append(s.buf, ',')
	prefix := len(s.buf)
	for _, row := range rows {
		s.buf = append(s.buf[:prefix], row.ID...)
		s.buf = append(s.buf, ',')
		s.buf = strconv.AppendFloat(s.buf, row.Val, 'g', -1, 64)
		s.buf = append(s.buf, '\n')
		s.write(s.buf)
	}
}

// Flush pushes buffered bytes to the underlying writer.
func (s *CSVStream) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

// Tell returns the number of bytes emitted so far (the file offset
// after a Flush).
func (s *CSVStream) Tell() int64 { return s.n }

// Err returns the stream's latched write error, if any.
func (s *CSVStream) Err() error { return s.err }

// Snapshot appends the stream's byte offset.
func (s *CSVStream) Snapshot(e *checkpoint.Encoder) { e.I64(s.n) }

// ResumeCSVStream rebuilds a stream from a snapshot on w, which must
// already hold the first Tell() bytes of the original stream. No header
// is written.
func ResumeCSVStream(w io.Writer, d *checkpoint.Decoder) (*CSVStream, error) {
	s := &CSVStream{w: bufio.NewWriter(w), n: d.I64()}
	return s, d.Err()
}
