package trace

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

func testTrace() *Trace {
	return Capture(workload.NewZipfian(200, 0.99, 0.2, 0.1, sim.NewRNG(5)), 300)
}

// TestReplayerSnapshotRoundTrip restores a mid-loop replayer and
// requires the remaining reference stream to match byte for byte.
func TestReplayerSnapshotRoundTrip(t *testing.T) {
	tr := testTrace()
	src := NewReplayer(tr)
	for i := 0; i < 450; i++ { // one full loop plus half the next
		src.Next()
	}

	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("replay", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("replay", 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewReplayer(tr)
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 600; i++ {
		if a, b := src.Next(), dst.Next(); a != b {
			t.Fatalf("ref %d: %+v != %+v", i, a, b)
		}
	}
}

func TestReplayerRestoreRejectsBadState(t *testing.T) {
	tr := testTrace()
	encode := func(cursor int) *checkpoint.Decoder {
		e := &checkpoint.Encoder{}
		e.Int(cursor)
		return checkpoint.NewDecoder(e.Bytes())
	}
	cases := map[string]*checkpoint.Decoder{
		"cursor past end": encode(tr.Len()),
		"negative cursor": encode(-1),
		"empty payload":   checkpoint.NewDecoder(nil),
		"half a payload":  checkpoint.NewDecoder(make([]byte, 4)),
	}
	for name, d := range cases {
		if err := NewReplayer(tr).Restore(d); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
