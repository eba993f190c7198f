package metrics

import (
	"math"
	"testing"
)

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	b := NewHistogram(0, 10, 10)
	for _, x := range []float64{0, 0.5, 3.2, 9.99} {
		a.Add(x)
	}
	for _, x := range []float64{-5, 3.7, 42} { // clamp into edge buckets
		b.Add(x)
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if got, want := a.Count(), uint64(7); got != want {
		t.Fatalf("merged count = %d, want %d", got, want)
	}
	// Bucket 0: a's {0, 0.5} plus b's clamped -5.
	if got := a.buckets[0]; got != 3 {
		t.Errorf("bucket 0 = %d, want 3", got)
	}
	// Bucket 3: a's 3.2 plus b's 3.7.
	if got := a.buckets[3]; got != 2 {
		t.Errorf("bucket 3 = %d, want 2", got)
	}
	// Top bucket: a's 9.99 plus b's clamped 42.
	if got := a.buckets[9]; got != 2 {
		t.Errorf("bucket 9 = %d, want 2", got)
	}
}

func TestHistogramMergeEmptyAndNil(t *testing.T) {
	a := NewHistogram(0, 1, 4)
	a.Add(0.5)
	if err := a.Merge(nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}
	if err := a.Merge(NewHistogram(0, 1, 4)); err != nil {
		t.Fatalf("empty merge: %v", err)
	}
	if a.Count() != 1 {
		t.Fatalf("count changed to %d after no-op merges", a.Count())
	}
}

func TestHistogramMergeShapeMismatch(t *testing.T) {
	a := NewHistogram(0, 10, 10)
	for _, bad := range []*Histogram{
		NewHistogram(1, 10, 10), // min differs
		NewHistogram(0, 11, 10), // max differs
		NewHistogram(0, 10, 11), // bucket count differs
	} {
		if err := a.Merge(bad); err == nil {
			t.Errorf("merge of mismatched shape %v succeeded", bad)
		}
	}
	if a.Count() != 0 {
		t.Fatalf("rejected merges mutated the receiver (count %d)", a.Count())
	}
}

func TestHistogramMergeQuantiles(t *testing.T) {
	// Merging must be equivalent to observing the union.
	union := NewHistogram(0, 100, 50)
	parts := []*Histogram{NewHistogram(0, 100, 50), NewHistogram(0, 100, 50)}
	for i := 0; i < 200; i++ {
		x := float64(i % 100)
		union.Add(x)
		parts[i%2].Add(x)
	}
	merged := NewHistogram(0, 100, 50)
	for _, p := range parts {
		if err := merged.Merge(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []float64{0, 0.5, 0.95, 0.99, 1} {
		if got, want := merged.Quantile(q), union.Quantile(q); math.Abs(got-want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v after merge, union gives %v", q, got, want)
		}
	}
}

func TestCFITrackerGrow(t *testing.T) {
	c := new(CFITracker) // zero value: no workloads yet
	if c.N() != 0 {
		t.Fatalf("zero-value tracker has %d slots", c.N())
	}
	if got := c.Index(); got != 0 {
		t.Fatalf("empty tracker index = %v, want 0", got)
	}
	i := c.Grow()
	j := c.Grow()
	if i != 0 || j != 1 {
		t.Fatalf("Grow indices = %d,%d, want 0,1", i, j)
	}
	c.Observe(i, 100, 1.0)
	k := c.Grow()
	if k != 2 {
		t.Fatalf("third Grow index = %d, want 2", k)
	}
	cum := c.Cumulative()
	if len(cum) != 3 || cum[0] != 100 || cum[1] != 0 || cum[2] != 0 {
		t.Fatalf("cumulative after grow = %v", cum)
	}
}

func TestCombineCFI(t *testing.T) {
	// Concatenation semantics: equal allocations across hosts are fair.
	if got := CombineCFI([]float64{5, 5}, []float64{5, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("equal allocations: CFI %v, want 1", got)
	}
	// Per-host balance does not hide cross-host imbalance: two hosts,
	// each internally fair, one starving its tenants relative to the
	// other, must score below a same-shape single host.
	skew := CombineCFI([]float64{10, 10}, []float64{1, 1})
	if skew >= 1 {
		t.Errorf("cross-host imbalance scored %v, want < 1", skew)
	}
	want := JainIndex([]float64{10, 10, 1, 1})
	if math.Abs(skew-want) > 1e-12 {
		t.Errorf("CombineCFI = %v, JainIndex over concat = %v", skew, want)
	}
	// Boundary cases.
	if got := CombineCFI(); got != 0 {
		t.Errorf("no groups: %v, want 0", got)
	}
	if got := CombineCFI(nil, []float64{}); got != 0 {
		t.Errorf("empty groups: %v, want 0", got)
	}
	if got := CombineCFI(nil, []float64{3}, nil); math.Abs(got-1) > 1e-12 {
		t.Errorf("single workload across empty groups: %v, want 1", got)
	}
	if got := CombineCFI([]float64{0, 0}); got != 0 {
		t.Errorf("all-zero allocations: %v, want 0", got)
	}
}
