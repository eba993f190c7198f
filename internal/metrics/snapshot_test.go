package metrics

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

func encode(snap func(e *checkpoint.Encoder)) []byte {
	e := &checkpoint.Encoder{}
	snap(e)
	return e.Bytes()
}

func TestRunningSnapshotRoundTrip(t *testing.T) {
	var src Running
	for i := 0; i < 100; i++ {
		src.Add(float64(i*i) / 7)
	}
	var dst Running
	d := checkpoint.NewDecoder(encode(src.Snapshot))
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	// Continue feeding both: the Welford accumulator state must be
	// bit-exact, not just the current summary values.
	for i := 0; i < 50; i++ {
		src.Add(float64(i) * 1.5)
		dst.Add(float64(i) * 1.5)
	}
	if src != dst {
		t.Fatalf("accumulators diverged: %+v != %+v", src, dst)
	}
}

func TestRunningRestoreRejectsNegativeCount(t *testing.T) {
	e := &checkpoint.Encoder{}
	e.Int(-1)
	e.F64(0)
	e.F64(0)
	var r Running
	if err := r.Restore(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("negative observation count accepted")
	}
}

func TestEMASnapshotRoundTrip(t *testing.T) {
	src := NewEMA(0.2)
	for i := 0; i < 20; i++ {
		src.Update(float64(i % 7))
	}
	dst := NewEMA(0.2)
	if err := dst.Restore(checkpoint.NewDecoder(encode(src.Snapshot))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if a, b := src.Update(float64(i)), dst.Update(float64(i)); a != b {
			t.Fatalf("update %d: %v != %v", i, a, b)
		}
	}
}

func TestHistogramSnapshotRoundTrip(t *testing.T) {
	src := NewHistogram(0, 100, 20)
	for i := 0; i < 500; i++ {
		src.Add(float64(i%130) - 10) // includes under/overflow
	}
	dst, err := RestoreHistogram(checkpoint.NewDecoder(encode(src.Snapshot)))
	if err != nil {
		t.Fatal(err)
	}
	if dst.Count() != src.Count() || len(dst.buckets) != len(src.buckets) {
		t.Fatalf("shape: count %d/%d buckets %d/%d",
			dst.Count(), src.Count(), len(dst.buckets), len(src.buckets))
	}
	for i := 0; i < len(src.buckets); i++ {
		if src.buckets[i] != dst.buckets[i] {
			t.Fatalf("bucket %d: %d != %d", i, src.buckets[i], dst.buckets[i])
		}
	}
	if src.Quantile(0.9) != dst.Quantile(0.9) {
		t.Fatal("quantiles diverged")
	}
}

func TestRestoreHistogramRejectsBadShape(t *testing.T) {
	shape := func(min, max float64, n int) []byte {
		e := &checkpoint.Encoder{}
		e.F64(min)
		e.F64(max)
		e.Int(n)
		for i := 0; i < n; i++ {
			e.U64(0)
		}
		e.U64(0)
		return e.Bytes()
	}
	cases := map[string][]byte{
		"inverted bounds": shape(100, 0, 4),
		"zero buckets":    shape(0, 100, 0),
		"empty payload":   nil,
	}
	for name, blob := range cases {
		if _, err := RestoreHistogram(checkpoint.NewDecoder(blob)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCFITrackerSnapshotRoundTrip(t *testing.T) {
	src := NewCFITracker(3)
	for i := 0; i < 30; i++ {
		src.Observe(i%3, float64(i), 1+float64(i%5))
	}
	dst := NewCFITracker(3)
	if err := dst.Restore(checkpoint.NewDecoder(encode(src.Snapshot))); err != nil {
		t.Fatal(err)
	}
	if src.Index() != dst.Index() {
		t.Fatalf("CFI %v != %v", src.Index(), dst.Index())
	}
	// Workload-count mismatch must be rejected.
	if err := NewCFITracker(4).Restore(checkpoint.NewDecoder(encode(src.Snapshot))); err == nil {
		t.Fatal("workload-count mismatch accepted")
	}
}

func TestSeriesRestoreRejectsTimeTravel(t *testing.T) {
	e := &checkpoint.Encoder{}
	e.Int(2)
	e.I64(100)
	e.F64(1)
	e.I64(50) // earlier than the previous point
	e.F64(2)
	s := NewSeries("x")
	if err := s.Restore(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("non-monotonic series accepted")
	}
}

func TestRecorderSnapshotRoundTrip(t *testing.T) {
	var clock sim.Clock
	src := NewRecorder(&clock)
	for i := 0; i < 40; i++ {
		clock.Advance(sim.Millisecond)
		src.Record("throughput", float64(i))
		if i%2 == 0 {
			src.Record("fairness", 1/float64(i+1))
		}
	}

	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("metrics", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("metrics", 1)
	if err != nil {
		t.Fatal(err)
	}
	var clock2 sim.Clock
	clock2.Advance(sim.Duration(clock.Now()))
	dst := NewRecorder(&clock2)
	dst.Record("pre-existing", 1) // must be discarded by Restore
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Keep recording on both and compare the full CSV export.
	for i := 0; i < 10; i++ {
		clock.Advance(sim.Millisecond)
		clock2.Advance(sim.Millisecond)
		src.Record("throughput", float64(i)*3)
		dst.Record("throughput", float64(i)*3)
	}
	var a, b bytes.Buffer
	if err := src.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := dst.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("CSV exports diverged after restore")
	}
}

func TestRecorderRestoreRejectsDuplicateSeries(t *testing.T) {
	e := &checkpoint.Encoder{}
	e.Int(2)
	for i := 0; i < 2; i++ {
		e.String("dup")
		e.Int(0) // empty series
	}
	var clock sim.Clock
	r := NewRecorder(&clock)
	if err := r.Restore(checkpoint.NewDecoder(e.Bytes())); err == nil {
		t.Fatal("duplicate series accepted")
	}
}
