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

// microseconds renders a nanosecond count as the trace format's
// microsecond timestamp, with sub-µs precision kept as decimals.
func microseconds(ns int64) string {
	us := ns / 1000
	frac := ns % 1000
	if frac == 0 {
		return strconv.FormatInt(us, 10)
	}
	// Always three fractional digits: 1234 ns -> "1.234".
	s := strconv.FormatInt(frac, 10)
	for len(s) < 3 {
		s = "0" + s
	}
	return strconv.FormatInt(us, 10) + "." + s
}

// jsonWriter is a minimal error-latching JSON emitter that counts the
// bytes it accepts. The exporter writes structure by hand so field
// order (and therefore output bytes) is exactly the emission order, not
// encoding/json's choices; the byte count gives streams a Tell() for
// rolling-checkpoint truncation offsets.
type jsonWriter struct {
	w   *bufio.Writer
	n   int64
	err error
}

func (j *jsonWriter) raw(s string) {
	if j.err == nil {
		var k int
		k, j.err = j.w.WriteString(s)
		j.n += int64(k)
	}
}

// str writes a JSON string literal with the escapes our names can need.
func (j *jsonWriter) str(s string) {
	if j.err != nil {
		return
	}
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
	var k int
	k, j.err = j.w.Write(buf)
	j.n += int64(k)
}
