package obs

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// populatedRecorder builds a recorder holding every flavor of durable
// telemetry: filtered events with fields, per-epoch registry samples,
// and all three instrument types.
func populatedRecorder(clock *sim.Clock) *Recorder {
	r := NewRecorder()
	r.BindClock(clock)
	reg := r.Metrics()
	faults := reg.Counter("faults_total", App("mc"))
	util := reg.Gauge("fast_util")
	lat := reg.Histogram("latency_ns", 0, 1000, 16, Tier("fast"))
	for epoch := 0; epoch < 8; epoch++ {
		clock.Advance(sim.Millisecond)
		r.Event(E(EvEpoch, "", "system", sim.Millisecond, F("epoch", float64(epoch))))
		r.Event(E(EvMigrateSync, "mc", "migrate", 0,
			F("moved", float64(epoch*3)), F("cycles", 1e5)))
		faults.Add(float64(epoch % 3))
		util.Set(0.5 + float64(epoch)/100)
		lat.Add(float64(epoch * 70))
		r.FlushEpoch(epoch)
	}
	return r
}

// TestObsRecorderSnapshotRoundTrip requires both renderers (metrics CSV
// and Chrome trace) to emit byte-identical artifacts from a restored
// recorder.
func TestObsRecorderSnapshotRoundTrip(t *testing.T) {
	var clock sim.Clock
	src := populatedRecorder(&clock)

	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("obs", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("obs", 1)
	if err != nil {
		t.Fatal(err)
	}
	var clock2 sim.Clock
	clock2.Advance(sim.Duration(clock.Now()))
	dst := NewRecorder()
	dst.BindClock(&clock2)
	dst.Metrics().Counter("stale") // must be discarded by Restore
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep emitting on both; the artifacts must stay identical.
	for epoch := 8; epoch < 12; epoch++ {
		for _, r := range []*Recorder{src, dst} {
			r.Event(E(EvDecision, "mc", "policy", 0, F("promoted", float64(epoch))))
			r.Metrics().Counter("faults_total", App("mc")).Inc()
			r.FlushEpoch(epoch)
		}
		clock.Advance(sim.Millisecond)
		clock2.Advance(sim.Millisecond)
	}
	for name, render := range map[string]func(*Recorder, *bytes.Buffer) error{
		"metrics csv":  func(r *Recorder, b *bytes.Buffer) error { return r.WriteMetricsCSV(b) },
		"chrome trace": func(r *Recorder, b *bytes.Buffer) error { return r.WriteChromeTrace(b) },
	} {
		var a, b bytes.Buffer
		if err := render(src, &a); err != nil {
			t.Fatal(err)
		}
		if err := render(dst, &b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("%s diverged after restore", name)
		}
	}
	if src.EventCount(EvMigrateSync) != dst.EventCount(EvMigrateSync) {
		t.Fatal("event counts diverged")
	}
}

func TestObsRestoreRejectsUnknownEventType(t *testing.T) {
	var clock sim.Clock
	src := populatedRecorder(&clock)
	e := &checkpoint.Encoder{}
	src.Snapshot(e)
	blob := append([]byte(nil), e.Bytes()...)

	// The first event's type byte sits after the filter (4 bytes), the
	// event count (8) and the event timestamp (8).
	blob[4+8+8] = 0xee
	dst := NewRecorder()
	if err := dst.Restore(checkpoint.NewDecoder(blob)); err == nil {
		t.Fatal("unknown event type accepted")
	}
}

func TestObsRestoreTruncatedErrors(t *testing.T) {
	var clock sim.Clock
	src := populatedRecorder(&clock)
	e := &checkpoint.Encoder{}
	src.Snapshot(e)
	blob := e.Bytes()
	for cut := 0; cut < len(blob); cut += 31 {
		if err := NewRecorder().Restore(checkpoint.NewDecoder(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}
