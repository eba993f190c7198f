package obs

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// epochSample is the reference form of the batch sample log: one
// 40-byte row per sample with its identity spelled out, rendered and
// encoded one row at a time.
type epochSample struct {
	Epoch int
	T     sim.Time
	ID    string
	Val   float64
}

// refCSV renders samples as the metrics CSV, formatting every row in
// full.
func refCSV(samples []epochSample) []byte {
	var b bytes.Buffer
	b.WriteString("epoch,t_ns,metric,value\n")
	for _, s := range samples {
		b.WriteString(strconv.Itoa(s.Epoch) + "," + strconv.FormatInt(int64(s.T), 10) + "," +
			s.ID + "," + strconv.FormatFloat(s.Val, 'g', -1, 64) + "\n")
	}
	return b.Bytes()
}

// refEncode appends the recorder blob's sample section.
func refEncode(e *checkpoint.Encoder, samples []epochSample) {
	e.Int(len(samples))
	for _, s := range samples {
		e.Int(s.Epoch)
		e.I64(int64(s.T))
		e.String(s.ID)
		e.F64(s.Val)
	}
}

// refSplit reads a recorder blob's sample section with the reference
// decoder, returning the bytes before it, its samples and the bytes
// after it.
func refSplit(blob []byte) (head []byte, samples []epochSample, tail []byte, err error) {
	d := checkpoint.NewDecoder(blob)
	d.U32()
	n := d.Length(16)
	for i := 0; i < n && d.Err() == nil; i++ {
		if _, err := restoreEvent(d); err != nil {
			return nil, nil, nil, err
		}
	}
	head = blob[:len(blob)-d.Remaining()]
	n = d.Length(24)
	for i := 0; i < n && d.Err() == nil; i++ {
		samples = append(samples, epochSample{Epoch: d.Int(), T: sim.Time(d.I64()), ID: d.String(), Val: d.F64()})
	}
	if d.Err() != nil {
		return nil, nil, nil, d.Err()
	}
	return head, samples, blob[len(blob)-d.Remaining():], nil
}

// checkAgainstReference requires r's sample log to render and encode
// exactly as the reference renders and encodes want, and a recorder
// restored from r's blob to do the same.
func checkAgainstReference(r *Recorder, want []epochSample) error {
	e := &checkpoint.Encoder{}
	r.Snapshot(e)
	blob := e.Bytes()
	head, got, tail, err := refSplit(blob)
	if err != nil {
		return fmt.Errorf("reference decode: %v", err)
	}
	ref := &checkpoint.Encoder{}
	refEncode(ref, want)
	if !bytes.Equal(blob, append(append(append([]byte(nil), head...), ref.Bytes()...), tail...)) {
		return fmt.Errorf("snapshot holds %d samples, reference %d, or their bytes differ", len(got), len(want))
	}
	back := NewRecorder()
	if err := back.Restore(checkpoint.NewDecoder(blob)); err != nil {
		return fmt.Errorf("restore: %v", err)
	}
	again := &checkpoint.Encoder{}
	back.Snapshot(again)
	if !bytes.Equal(again.Bytes(), blob) {
		return fmt.Errorf("restored recorder re-encodes differently")
	}
	wantCSV := refCSV(want)
	for name, rec := range map[string]*Recorder{"recorder": r, "restored": back} {
		var csv bytes.Buffer
		if err := rec.WriteMetricsCSV(&csv); err != nil {
			return err
		}
		if !bytes.Equal(csv.Bytes(), wantCSV) {
			return fmt.Errorf("%s metrics CSV differs from the reference:\n got %q\nwant %q", name, csv.Bytes(), wantCSV)
		}
	}
	return nil
}

// ReferenceMetricsCSV checks r's sample log against the reference
// decoder and renderer, and returns the reference CSV of its samples.
func ReferenceMetricsCSV(r *Recorder) ([]byte, error) {
	e := &checkpoint.Encoder{}
	r.Snapshot(e)
	_, samples, _, err := refSplit(e.Bytes())
	if err != nil {
		return nil, err
	}
	if err := checkAgainstReference(r, samples); err != nil {
		return nil, err
	}
	return refCSV(samples), nil
}

// sampleBlob encodes a recorder blob holding only samples.
func sampleBlob(samples []epochSample) []byte {
	e := &checkpoint.Encoder{}
	e.U32(0)
	e.Int(0) // events
	refEncode(e, samples)
	NewRegistry().Snapshot(e)
	return e.Bytes()
}

// handBuiltSamples are sample lists a flush never produces but Restore
// accepts: (epoch, t) pairs that interleave, repeat after a gap, run
// backwards, and one identity under several pairs.
var handBuiltSamples = [][]epochSample{
	nil,
	{{0, 0, "a", 1}},
	{{0, 0, "a", 1}, {0, 0, "b", 2}, {1, 5, "a", 3}, {0, 0, "a", 4}, {0, 0, "c", -0.0}},
	{{3, 7, "x{app=m}", 0.5}, {3, 8, "x{app=m}", 0.5}, {2, 8, "y", 1e300}, {3, 7, "x{app=m}", 0.25}},
	{{-1, -9, "", 0}, {-1, -9, "", 0}, {1 << 40, 1 << 62, "z", 7}, {-1, -9, "q", 2}},
}

// TestSampleLogMatchesReferenceOnHandBuiltLists restores each hand-built
// list and requires the reference's bytes back out of Snapshot and
// WriteMetricsCSV.
func TestSampleLogMatchesReferenceOnHandBuiltLists(t *testing.T) {
	for i, samples := range handBuiltSamples {
		r := NewRecorder()
		if err := r.Restore(checkpoint.NewDecoder(sampleBlob(samples))); err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
		if err := checkAgainstReference(r, samples); err != nil {
			t.Fatalf("list %d: %v", i, err)
		}
	}
	// Restore merges adjacent equal (epoch, t) samples into one run.
	r := NewRecorder()
	if err := r.Restore(checkpoint.NewDecoder(sampleBlob(handBuiltSamples[2]))); err != nil {
		t.Fatal(err)
	}
	if got := len(r.log.runs); got != 3 {
		t.Fatalf("%d runs, want 3", got)
	}
}

// TestSampleLogMatchesReferenceWhenFlushed drives a batch recorder with
// random instrument churn and flushes that sometimes repeat an epoch's
// (epoch, t) or move the clock backwards, keeping the reference log
// from the registry rows of each flush.
func TestSampleLogMatchesReferenceWhenFlushed(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		rng := sim.NewRNG(seed)
		var clock sim.Clock
		r := NewRecorder()
		r.BindClock(&clock)
		reg := r.Metrics()
		var want []epochSample
		epoch := 0
		for step := 0; step < 40; step++ {
			for k := rng.Intn(6); k > 0; k-- {
				app := App(fmt.Sprintf("app%d", rng.Intn(4)))
				switch rng.Intn(3) {
				case 0:
					reg.Gauge("fthr", app).Set(float64(rng.Intn(4)) / 4)
				case 1:
					reg.Gauge("pages", app, Tier("fast")).Set(float64(rng.Intn(3)))
				default:
					reg.Histogram("perf", 0, 1, 8, app).Add(rng.Float64())
				}
			}
			if step == 20 { // a restore mid-run keeps the log and the registry
				e := &checkpoint.Encoder{}
				r.Snapshot(e)
				back := NewRecorder()
				back.BindClock(&clock)
				if err := back.Restore(checkpoint.NewDecoder(e.Bytes())); err != nil {
					t.Fatal(err)
				}
				r, reg = back, back.Metrics()
			}
			for _, row := range reg.snapshot(nil) {
				want = append(want, epochSample{Epoch: epoch, T: clock.Now(), ID: row.ID, Val: row.Val})
			}
			r.FlushEpoch(epoch)
			switch rng.Intn(4) {
			case 0: // flush the same (epoch, t) again
			case 1:
				epoch--
			default:
				epoch++
				clock.Advance(sim.Millisecond)
			}
		}
		if err := checkAgainstReference(r, want); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestStreamingFlushReformatsWithoutAllocating pins the CSV row memo:
// with every value changing every epoch, a streaming flush re-formats
// each row into its kept buffer and allocates nothing.
func TestStreamingFlushReformatsWithoutAllocating(t *testing.T) {
	var clock sim.Clock
	r := NewRecorder()
	r.BindClock(&clock)
	var csv bytes.Buffer
	r.StreamTo(nil, NewCSVStream(&csv))
	reg := r.Metrics()
	var gauges []*Gauge
	for _, app := range []string{"a", "b", "c"} {
		gauges = append(gauges, reg.Gauge("pages_moved", App(app), Tier("fast")), reg.Gauge("fthr", App(app)))
		reg.Histogram("epoch_perf", 0, 1, 20, App(app)).Add(0.5)
	}
	set := func(epoch int) {
		for i, g := range gauges {
			g.Set(float64(epoch*len(gauges)+i) + 0.125)
		}
	}
	// The first flushes size every buffer with the longest values the
	// loop below sets.
	set(1 << 20)
	r.FlushEpoch(0)
	epoch := 1
	allocs := testing.AllocsPerRun(50, func() {
		set(epoch)
		r.FlushEpoch(epoch)
		epoch++
	})
	if allocs != 0 {
		t.Fatalf("FlushEpoch: %v allocs/run, want 0", allocs)
	}
	// The streamed rows are the ones a full re-format writes.
	var want bytes.Buffer
	cs := NewCSVStream(&want)
	cs.begin(epoch-1, 0)
	for _, row := range reg.snapshot(nil) {
		cs.row(row.ID, row.Val)
	}
	if err := cs.Flush(); err != nil {
		t.Fatal(err)
	}
	last := want.Bytes()[len("epoch,t_ns,metric,value\n"):]
	if !bytes.HasSuffix(csv.Bytes(), last) {
		t.Fatalf("last streamed epoch differs from a full re-format:\n got %q\nwant suffix %q", csv.Bytes(), last)
	}
}

// TestRegistryLookupAllocatesNothing pins the registry's hit path: a
// repeated lookup builds its identity in the registry's scratch buffer.
func TestRegistryLookupAllocatesNothing(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("fthr", App("a"))
	reg.Histogram("epoch_perf", 0, 1, 20, App("a"), Tier("fast"))
	x := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		x++
		reg.Gauge("fthr", App("a")).Set(x)
		reg.Histogram("epoch_perf", 0, 1, 20, Tier("fast"), App("a")).Add(0.5)
	})
	if allocs != 0 {
		t.Fatalf("registry lookup: %v allocs/run, want 0", allocs)
	}
	if len(reg.gauges) != 1 || len(reg.histos) != 1 {
		t.Fatalf("repeated lookups registered %d gauges, %d histograms", len(reg.gauges), len(reg.histos))
	}
}

// TestTraceStreamEventAllocatesNothing pins the trace record path:
// once the event's scope, lane and track cursor exist, Event builds
// its record in the kept buffer and allocates nothing.
func TestTraceStreamEventAllocatesNothing(t *testing.T) {
	ts := NewTraceStream(io.Discard)
	slice := E(EvMigrateSync, "memcached", "migrate", 2*sim.Microsecond+7, F("pages", 3), F("cycles", 1.5e5))
	slice.Note = `donor "a"`
	instant := E(EvShootdown, "memcached", "tlb", 0, F("ipis", 8))
	ts.Event(slice)
	ts.Event(instant)
	allocs := testing.AllocsPerRun(100, func() {
		slice.Time += 1234
		slice.Fields[0].Val++
		instant.Time += 999
		ts.Event(slice)
		ts.Event(instant)
	})
	if allocs != 0 {
		t.Fatalf("TraceStream.Event: %v allocs/run, want 0", allocs)
	}
}
