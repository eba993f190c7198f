package obs

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// populatedRecorder builds a recorder holding every flavor of durable
// telemetry: filtered events with fields, per-epoch registry samples,
// and both instrument types.
func populatedRecorder(clock *sim.Clock) *Recorder {
	r := NewRecorder()
	r.BindClock(clock)
	reg := r.Metrics()
	faults := reg.Gauge("faults_total", App("mc"))
	util := reg.Gauge("fast_util")
	lat := reg.Histogram("latency_ns", 0, 1000, 16, Tier("fast"))
	for epoch := 0; epoch < 8; epoch++ {
		clock.Advance(sim.Millisecond)
		r.Event(E(EvEpoch, "", "system", sim.Millisecond, F("epoch", float64(epoch))))
		r.Event(E(EvMigrateSync, "mc", "migrate", 0,
			F("moved", float64(epoch*3)), F("cycles", 1e5)))
		faults.Set(float64(epoch % 3))
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
	dst.Metrics().Gauge("stale") // must be discarded by Restore
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
			r.Metrics().Gauge("faults_total", App("mc")).Set(float64(epoch))
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
	syncs := func(r *Recorder) int {
		n := 0
		for _, e := range r.events {
			if e.Type == EvMigrateSync {
				n++
			}
		}
		return n
	}
	if syncs(src) != syncs(dst) {
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

// TestRegistryRestoreRejectsUnsortedIDs: Snapshot writes each kind's
// identities in ascending order, so Restore accepts only that order —
// a blob listing gauges "b" then "a" would otherwise restore and
// re-encode to different bytes. Repeats are rejected the same way.
func TestRegistryRestoreRejectsUnsortedIDs(t *testing.T) {
	gauges := func(ids ...string) []byte {
		e := &checkpoint.Encoder{}
		e.Int(len(ids))
		for i, id := range ids {
			e.String(id)
			e.F64(float64(i))
		}
		e.Int(0) // histograms
		return e.Bytes()
	}
	if err := NewRegistry().Restore(checkpoint.NewDecoder(gauges("a", "b"))); err != nil {
		t.Fatalf("ascending gauges rejected: %v", err)
	}
	for _, ids := range [][]string{{"b", "a"}, {"a", "a"}} {
		if err := NewRegistry().Restore(checkpoint.NewDecoder(gauges(ids...))); err == nil {
			t.Errorf("gauges %q accepted", ids)
		}
	}
}

// FuzzRecorderRestore: decoding an arbitrary obs blob never panics, and
// a blob the recorder accepts re-encodes byte for byte, with its
// registry's identity lists in sorted order. The corpus is
// a batch recorder's snapshot after a short run (events, samples,
// gauges, two histograms), a truncation ladder over it, and the
// hand-built sample lists whose (epoch, t) pairs interleave and repeat,
// so the log holds several runs per epoch.
func FuzzRecorderRestore(f *testing.F) {
	var clock sim.Clock
	r := populatedRecorder(&clock)
	r.Metrics().Gauge("fast_util", Tier("slow")).Set(0.25)
	r.Metrics().Histogram("latency_ns", 0, 1000, 16, Tier("slow")).Add(700)
	e := &checkpoint.Encoder{}
	r.Snapshot(e)
	blob := e.Bytes()
	f.Add(blob)
	for cut := 0; cut < len(blob); cut += 37 {
		f.Add(blob[:cut])
	}
	for _, samples := range handBuiltSamples {
		f.Add(sampleBlob(samples))
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		r := NewRecorder()
		d := checkpoint.NewDecoder(blob)
		if r.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		r.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
		checkIDLists(t, r.reg)
	})
}
