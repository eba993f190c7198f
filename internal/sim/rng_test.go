package sim

import (
	"math"
	"testing"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGSeedSensitivity(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws of 100", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGFloat64Mean(t *testing.T) {
	r := NewRNG(11)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(3)
	seen := make([]bool, 10)
	for i := 0; i < 10000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d out of range", v)
		}
		seen[v] = true
	}
	for v, ok := range seen {
		if !ok {
			t.Errorf("Intn(10) never produced %d in 10000 draws", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(99)
	child := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked stream matched parent %d/100 times", same)
	}
}

func TestZipfSkewOrdering(t *testing.T) {
	r := NewRNG(23)
	z := NewZipf(r, 1000, 0.99)
	counts := make([]int, 1000)
	for i := 0; i < 100000; i++ {
		counts[z.Next()]++
	}
	// Rank 0 must be the most frequent and dominate the tail.
	if counts[0] < counts[1] {
		t.Errorf("rank 0 count %d < rank 1 count %d", counts[0], counts[1])
	}
	if counts[0] < 50*counts[900] && counts[900] > 0 {
		t.Errorf("insufficient skew: head %d vs tail %d", counts[0], counts[900])
	}
}

func TestZipfRange(t *testing.T) {
	r := NewRNG(29)
	for _, n := range []int{1, 2, 17, 1000} {
		z := NewZipf(r, n, 1.1)
		for i := 0; i < 2000; i++ {
			v := z.Next()
			if v < 0 || v >= n {
				t.Fatalf("Zipf(n=%d) drew %d", n, v)
			}
		}
	}
}

func TestZipfLargeNApproximation(t *testing.T) {
	r := NewRNG(31)
	n := zipfExactThreshold * 2
	z := NewZipf(r, n, 1.01)
	if !z.approx {
		t.Fatal("large-n sampler did not select approximate mode")
	}
	headHits := 0
	for i := 0; i < 20000; i++ {
		v := z.Next()
		if v < 0 || v >= n {
			t.Fatalf("approx Zipf drew %d out of [0,%d)", v, n)
		}
		if v < n/100 {
			headHits++
		}
	}
	// With s≈1, the top 1% of ranks should absorb well over a third of
	// draws; uniform would give 1%.
	if headHits < 20000/3 {
		t.Fatalf("approx Zipf not skewed: %d/20000 head hits", headHits)
	}
}

func TestZipfPanics(t *testing.T) {
	r := NewRNG(1)
	for _, fn := range []func(){
		func() { NewZipf(r, 0, 1) },
		func() { NewZipf(r, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Zipf construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRNGBoolProbability(t *testing.T) {
	r := NewRNG(37)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) hit rate %v", frac)
	}
}
