package obs

import (
	"bufio"
	"io"
	"strconv"
)

// WriteChromeTrace exports the buffered events as Chrome trace-event
// JSON (the "JSON Array Format" with metadata), loadable in Perfetto or
// chrome://tracing.
//
// The batch path is a replay through TraceStream: events go out in
// emission order, exactly as a live daemon streaming the same session
// would write them. Because both paths share one record emitter, a
// journaled daemon session replayed through this exporter reproduces
// the streamed artifact byte for byte.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	ts := NewTraceStream(w)
	for _, e := range r.events {
		ts.Event(e)
	}
	return ts.Close()
}

// appendMicroseconds appends a nanosecond count as the trace format's
// microsecond timestamp, with sub-µs precision kept as decimals.
func appendMicroseconds(b []byte, ns int64) []byte {
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return b
	}
	// Always three fractional characters, zero-padded on the left:
	// 1234 ns -> "1.234", 5 ns -> "0.005".
	b = append(b, '.')
	at := len(b)
	b = strconv.AppendInt(b, frac, 10)
	for len(b)-at < 3 {
		b = append(b, 0)
		copy(b[at+1:], b[at:])
		b[at] = '0'
	}
	return b
}

// appendJSONString appends s as a JSON string literal with the escapes
// our names can need.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c < 0x20:
			const hex = "0123456789abcdef"
			b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
		default:
			b = append(b, c)
		}
	}
	return append(b, '"')
}

// jsonWriter is a minimal error-latching JSON emitter that counts the
// bytes it accepts. The exporter writes structure by hand so field
// order (and therefore output bytes) is exactly the emission order, not
// encoding/json's choices; the byte count gives streams a Tell() for
// rolling-checkpoint truncation offsets. Each record is built in rec
// and goes out in one write.
type jsonWriter struct {
	w   *bufio.Writer
	n   int64
	err error
	rec []byte // the record being built, reused across records
}

// lit, str, int, us and float append one token to the record.
func (j *jsonWriter) lit(s string)    { j.rec = append(j.rec, s...) }
func (j *jsonWriter) str(s string)    { j.rec = appendJSONString(j.rec, s) }
func (j *jsonWriter) int(v int64)     { j.rec = strconv.AppendInt(j.rec, v, 10) }
func (j *jsonWriter) us(ns int64)     { j.rec = appendMicroseconds(j.rec, ns) }
func (j *jsonWriter) float(v float64) { j.rec = strconv.AppendFloat(j.rec, v, 'g', -1, 64) }

// typ appends t's wire name as a JSON string; the taxonomy's names
// need no escapes.
func (j *jsonWriter) typ(t EventType) {
	j.rec = append(j.rec, '"')
	j.rec = t.appendName(j.rec)
	j.rec = append(j.rec, '"')
}

// emit writes the built record and empties the buffer.
func (j *jsonWriter) emit() {
	if j.err == nil {
		var k int
		k, j.err = j.w.Write(j.rec)
		j.n += int64(k)
	}
	j.rec = j.rec[:0]
}
