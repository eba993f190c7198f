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

// probEdgeCases lists the probabilities TestProbHitMatchesBool checks:
// the clamps, NaN, subnormals, every constant probability the workload
// generators draw (write fractions, shared/private picks and the
// region-pick ladders), and k/2^53 with its float neighbours, where
// the ceiling in NewProb decides the answer.
func probEdgeCases() []float64 {
	ps := []float64{
		0, math.Copysign(0, -1), 1, -0.1, 1.5, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, 0x1p-1022, 0x1p-60, 0x1p-53, 0x1p-54,
		0.02, 0.05, 0.1, 0.10, 0.2, 0.3, 0.30, 0.35, 0.40, 0.45, 0.5,
		0.80, 0.85, 0.90, 0.98, 0.99, 1.0 / 3, 2.0 / 3,
	}
	for _, k := range []uint64{1, 2, 3, 1 << 20, 0x0010_0000_0000_0000, uint64(ProbOne) - 1} {
		p := float64(k) / 0x1p53
		ps = append(ps, p, math.Nextafter(p, 0), math.Nextafter(p, 1))
	}
	return ps
}

// TestProbHitMatchesBool pins Hit(NewProb(p)) ≡ Bool(p): on mirrored
// RNGs every draw agrees, and at the threshold itself, where random
// draws rarely land, the integer compare agrees with the float one for
// each draw around it.
func TestProbHitMatchesBool(t *testing.T) {
	for _, p := range probEdgeCases() {
		r := NewRNG(math.Float64bits(p))
		mirror := *r
		th := NewProb(p)
		if th > ProbOne {
			t.Fatalf("NewProb(%v) = %d above ProbOne", p, th)
		}
		for i := 0; i < 20_000; i++ {
			if got, want := r.Hit(th), mirror.Bool(p); got != want {
				t.Fatalf("p=%v draw %d: Hit=%v, Bool=%v", p, i, got, want)
			}
		}
		lo := uint64(th)
		if lo >= 2 {
			lo -= 2
		}
		for d := lo; d <= uint64(th)+2 && d < uint64(ProbOne); d++ {
			if got, want := Prob(d) < th, float64(d)/(1<<53) < p; got != want {
				t.Fatalf("p=%v (threshold %d) draw %d: integer %v, float %v", p, th, d, got, want)
			}
		}
	}
}

func BenchmarkRNGHit(b *testing.B) {
	r := NewRNG(11)
	th := NewProb(0.9)
	hits := 0
	for i := 0; i < b.N; i++ {
		if r.Hit(th) {
			hits++
		}
	}
	_ = hits
}
