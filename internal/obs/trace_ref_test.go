package obs

import (
	"bytes"
	"math"
	"strconv"
	"testing"

	"vulcan/internal/sim"
)

// refTraceStream is the reference trace emitter: every JSON field is
// built as its own string and written piecewise, with no reused record
// buffer.
type refTraceStream struct {
	out      bytes.Buffer
	first    bool
	pids     map[string]int
	pidOrder []string
	tids     map[string]map[string]int
	tidOrder map[string][]string
	cursor   map[streamTrack]int64
}

func newRefTraceStream() *refTraceStream {
	ts := &refTraceStream{
		first:    true,
		pids:     map[string]int{},
		tids:     map[string]map[string]int{},
		tidOrder: map[string][]string{},
		cursor:   map[streamTrack]int64{},
	}
	ts.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	ts.pid("")
	return ts
}

func (ts *refTraceStream) raw(s string) { ts.out.WriteString(s) }

// str writes a JSON string literal with the escapes our names can need.
func (ts *refTraceStream) str(s string) {
	buf := make([]byte, 0, len(s)+2)
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			buf = append(buf, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			buf = append(buf, c)
		}
	}
	buf = append(buf, '"')
	ts.out.Write(buf)
}

// refMicroseconds renders a nanosecond count as the trace format's
// microsecond timestamp, with sub-µs precision kept as decimals.
func refMicroseconds(ns int64) string {
	us := ns / 1000
	frac := ns % 1000
	if frac == 0 {
		return strconv.FormatInt(us, 10)
	}
	s := strconv.FormatInt(frac, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return strconv.FormatInt(us, 10) + "." + s
}

func (ts *refTraceStream) sep() {
	if !ts.first {
		ts.raw(",")
	}
	ts.first = false
	ts.raw("\n")
}

func (ts *refTraceStream) pid(scope string) int {
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
	ts.raw(`{"name":"process_name","ph":"M","pid":` + strconv.Itoa(p) +
		`,"tid":0,"args":{"name":`)
	ts.str(display)
	ts.raw(`}}`)
	return p
}

func (ts *refTraceStream) tid(pid int, scope, track string) int {
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
	ts.raw(`{"name":"thread_name","ph":"M","pid":` + strconv.Itoa(pid) +
		`,"tid":` + strconv.Itoa(t) + `,"args":{"name":`)
	ts.str(lane)
	ts.raw(`}}`)
	return t
}

func (ts *refTraceStream) Event(e Event) {
	p := ts.pid(e.App)
	t := ts.tid(p, e.App, e.Track)
	key := streamTrack{p, t}
	tns := int64(e.Time)
	if c := ts.cursor[key]; tns < c {
		tns = c
	}
	ts.sep()
	ts.raw(`{"name":`)
	ts.str(e.Type.String())
	ts.raw(`,"cat":`)
	ts.str(e.Type.String())
	if e.Dur > 0 {
		ts.raw(`,"ph":"X"`)
	} else {
		ts.raw(`,"ph":"i","s":"t"`)
	}
	ts.raw(`,"pid":` + strconv.Itoa(p) + `,"tid":` + strconv.Itoa(t))
	ts.raw(`,"ts":` + refMicroseconds(tns))
	if e.Dur > 0 {
		ts.raw(`,"dur":` + refMicroseconds(int64(e.Dur)))
		ts.cursor[key] = tns + int64(e.Dur)
	}
	ts.raw(`,"args":{`)
	argFirst := true
	arg := func() {
		if !argFirst {
			ts.raw(",")
		}
		argFirst = false
	}
	if e.Note != "" {
		arg()
		ts.raw(`"note":`)
		ts.str(e.Note)
	}
	for _, f := range e.Fields {
		arg()
		ts.str(f.Key)
		ts.raw(`:` + strconv.FormatFloat(f.Val, 'g', -1, 64))
	}
	ts.raw(`}}`)
}

func (ts *refTraceStream) Close() { ts.raw("\n]}\n") }

// TestMicrosecondsMatchesReference covers the sub-µs remainders,
// negative counts included, against the reference renderer.
func TestMicrosecondsMatchesReference(t *testing.T) {
	for _, ns := range []int64{0, 1, 5, 10, 99, 100, 999, 1000, 1001, 1234, 1_000_000_000,
		-1, -5, -10, -99, -100, -999, -1000, -1001, -1234, math.MaxInt64, math.MinInt64} {
		if got, want := string(appendMicroseconds(nil, ns)), refMicroseconds(ns); got != want {
			t.Errorf("appendMicroseconds(%d) = %q, reference %q", ns, got, want)
		}
	}
}

// FuzzTraceStreamEvent: arbitrary events render byte-identically
// through TraceStream and the reference emitter — scope, track, note
// and field-key strings with quotes, backslashes, control bytes and
// invalid UTF-8, times and durations with sub-µs remainders (negative
// ones included), field values of any bits, and event types outside the
// taxonomy. Each input emits a short sequence that reuses and then adds
// scopes and lanes and overlaps slices on one track, so the metadata
// records and the track cursor are covered too.
func FuzzTraceStreamEvent(f *testing.F) {
	f.Add("memcached", "migrate", "", "pages", uint8(EvMigrateSync), int64(1_000_000), int64(2_500), math.Float64bits(3))
	f.Add("", "", `transfer "pool"->a\b`, "units", uint8(EvQoSAdapt), int64(1234), int64(0), math.Float64bits(-0.0))
	f.Add("a\x00b", "t\"r\\k", "n\n\x1f\xff\xfe", "k\x7f\xc3", uint8(200), int64(-5), int64(7), math.Float64bits(math.NaN())|1)
	f.Add("x", "", "", "", uint8(EvEpoch), int64(999), int64(1_000_001), math.Float64bits(math.Inf(-1)))
	f.Fuzz(func(t *testing.T, scope, track, note, key string, typ uint8, tns, dur int64, bits uint64) {
		events := []Event{
			{Time: sim.Time(tns), Type: EventType(typ), App: scope, Track: track, Dur: sim.Duration(dur),
				Note: note, Fields: []Field{F(key, math.Float64frombits(bits)), F("x", 1.5)}},
			{Time: sim.Time(tns), Type: EventType(typ), App: scope, Track: track, Dur: sim.Duration(dur)},
			{Time: sim.Time(tns / 3), Type: EvShootdown, App: note, Track: key, Dur: sim.Duration(dur / 7),
				Fields: []Field{F(scope, float64(tns))}},
			{Time: sim.Time(tns), Type: EventType(typ % uint8(NumEventTypes)), Track: track, Note: key},
		}
		var got bytes.Buffer
		ts := NewTraceStream(&got)
		ref := newRefTraceStream()
		for _, e := range events {
			ts.Event(e)
			ref.Event(e)
		}
		if err := ts.Close(); err != nil {
			t.Fatal(err)
		}
		ref.Close()
		if !bytes.Equal(got.Bytes(), ref.out.Bytes()) {
			t.Fatalf("trace differs from the reference:\n got %q\nwant %q", got.Bytes(), ref.out.Bytes())
		}
		if ts.Tell() != int64(got.Len()) {
			t.Fatalf("Tell %d, wrote %d bytes", ts.Tell(), got.Len())
		}
	})
}
