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

	tids     map[scopeLane]int
	tidOrder map[string][]string // lanes in tid-assignment order; tid = index+1

	cursor map[streamTrack]int64
}

// scopeLane names one lane within one scope.
type scopeLane struct{ scope, lane string }

// streamTrack identifies one layout track (one thread row in the
// rendered trace).
type streamTrack struct{ pid, tid int }

// NewTraceStream opens a trace stream on w: the JSON preamble and the
// machine process metadata are written immediately.
func NewTraceStream(w io.Writer) *TraceStream {
	ts := newTraceStream(w)
	ts.j.lit(`{"displayTimeUnit":"ms","traceEvents":[`)
	ts.j.emit()
	ts.pid("") // machine is always pid 1
	return ts
}

func newTraceStream(w io.Writer) *TraceStream {
	return &TraceStream{
		j:        jsonWriter{w: bufio.NewWriterSize(w, streamBuffer)},
		first:    true,
		pids:     map[string]int{},
		tids:     map[scopeLane]int{},
		tidOrder: map[string][]string{},
		cursor:   map[streamTrack]int64{},
	}
}

// streamBuffer sizes both streams' write buffers to hold about one
// epoch of output, so a flush is one write(2).
const streamBuffer = 64 << 10

// record starts a record in the writer's buffer: the separator (a
// comma before every record after the first) and the leading newline.
func (ts *TraceStream) record() {
	if !ts.first {
		ts.j.lit(",")
	}
	ts.first = false
	ts.j.lit("\n")
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
	ts.record()
	ts.j.lit(`{"name":"process_name","ph":"M","pid":`)
	ts.j.int(int64(p))
	ts.j.lit(`,"tid":0,"args":{"name":`)
	ts.j.str(display)
	ts.j.lit(`}}`)
	ts.j.emit()
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
	key := scopeLane{scope, lane}
	if t, ok := ts.tids[key]; ok {
		return t
	}
	t := len(ts.tidOrder[scope]) + 1
	ts.tids[key] = t
	ts.tidOrder[scope] = append(ts.tidOrder[scope], lane)
	ts.record()
	ts.j.lit(`{"name":"thread_name","ph":"M","pid":`)
	ts.j.int(int64(pid))
	ts.j.lit(`,"tid":`)
	ts.j.int(int64(t))
	ts.j.lit(`,"args":{"name":`)
	ts.j.str(lane)
	ts.j.lit(`}}`)
	ts.j.emit()
	return t
}

// Event writes one event record: a complete ("X") slice when it has a
// duration, a thread-scoped instant ("i") otherwise. Fields and the
// note become args. The record is built in one reused buffer and goes
// out in one write; once its scope, lane and track cursor exist, an
// event allocates nothing.
//
//vulcan:hotpath
func (ts *TraceStream) Event(e Event) {
	p := ts.pid(e.App)
	t := ts.tid(p, e.App, e.Track)
	key := streamTrack{p, t}
	tns := int64(e.Time)
	if c := ts.cursor[key]; tns < c {
		tns = c
	}
	ts.record()
	ts.j.lit(`{"name":`)
	ts.j.typ(e.Type)
	ts.j.lit(`,"cat":`)
	ts.j.typ(e.Type)
	if e.Dur > 0 {
		ts.j.lit(`,"ph":"X"`)
	} else {
		ts.j.lit(`,"ph":"i","s":"t"`)
	}
	ts.j.lit(`,"pid":`)
	ts.j.int(int64(p))
	ts.j.lit(`,"tid":`)
	ts.j.int(int64(t))
	ts.j.lit(`,"ts":`)
	ts.j.us(tns)
	if e.Dur > 0 {
		ts.j.lit(`,"dur":`)
		ts.j.us(int64(e.Dur))
		ts.cursor[key] = tns + int64(e.Dur)
	}
	ts.j.lit(`,"args":{`)
	if e.Note != "" {
		ts.j.lit(`"note":`)
		ts.j.str(e.Note)
	}
	for i, f := range e.Fields {
		if i > 0 || e.Note != "" {
			ts.j.lit(",")
		}
		ts.j.str(f.Key)
		ts.j.lit(":")
		ts.j.float(f.Val)
	}
	ts.j.lit(`}}`)
	ts.j.emit()
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
	ts.j.lit("\n]}\n")
	ts.j.emit()
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
		for k := 0; k < nLanes; k++ {
			lane := d.String()
			ts.tids[scopeLane{scope, lane}] = k + 1
			ts.tidOrder[scope] = append(ts.tidOrder[scope], lane)
		}
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
	w      *bufio.Writer
	n      int64
	err    error
	buf    []byte // row formatting scratch, reused across rows
	prefix int    // length of the "epoch,t_ns," prefix at buf's head
}

// NewCSVStream opens a metrics CSV stream on w, writing the header.
func NewCSVStream(w io.Writer) *CSVStream {
	s := &CSVStream{w: bufio.NewWriterSize(w, streamBuffer)}
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

// rows appends one row per registry row, all at one epoch and time.
// Each row copies its memo's kept "id,value\n" tail, which is
// re-formatted only when the value changed.
//
//vulcan:hotpath
func (s *CSVStream) rows(epoch int, t sim.Time, rows []metricRow) {
	s.begin(epoch, t)
	for _, row := range rows {
		s.buf = append(s.buf[:s.prefix], row.memo.csvTail(row.ID, row.Val)...)
		s.write(s.buf)
	}
}

// begin formats the "epoch,t_ns," prefix the following rows share.
func (s *CSVStream) begin(epoch int, t sim.Time) {
	s.buf = strconv.AppendInt(s.buf[:0], int64(epoch), 10)
	s.buf = append(s.buf, ',')
	s.buf = strconv.AppendInt(s.buf, int64(t), 10)
	s.buf = append(s.buf, ',')
	s.prefix = len(s.buf)
}

// row formats and writes one row after the current prefix.
func (s *CSVStream) row(id string, val float64) {
	s.buf = appendCSVTail(s.buf[:s.prefix], id, val)
	s.write(s.buf)
}

// appendCSVTail appends a row's "id,value\n" tail, the value in its
// shortest round-trip form, so output is byte-stable across runs and
// Go versions.
func appendCSVTail(b []byte, id string, val float64) []byte {
	b = append(b, id...)
	b = append(b, ',')
	b = strconv.AppendFloat(b, val, 'g', -1, 64)
	return append(b, '\n')
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
	s := &CSVStream{w: bufio.NewWriterSize(w, streamBuffer), n: d.I64()}
	return s, d.Err()
}
