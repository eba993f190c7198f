package sim

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// floatZipfCDF is the Zipf CDF from its definition, in float64: the
// running sums of 1/(k+1)^s, each scaled by the inverse total. It is the
// CDF the float sampler searched before the table went integer, so the
// test checks draws against it and never against the table under test.
func floatZipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1.0 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	inv := 1.0 / sum
	for k := range cdf {
		cdf[k] *= inv
	}
	return cdf
}

// TestZipfNextIsCDFLowerBound pins the table sampler's exactness: every
// rank Next draws is the lower bound of its uniform u in the float CDF,
// so neither the integer table nor the search index's fan-out moves a
// single sample. A mirror RNG, cloned before the first draw, replays
// each u.
func TestZipfNextIsCDFLowerBound(t *testing.T) {
	const draws = 100_000
	for _, n := range []int{1, 2, 37, 155, 255, 256, 257, 309, 4096, 32767, 32768, 32769, 40000, 65536, 65537} {
		for _, s := range []float64{0.75, 0.99, 1.1} {
			rng := NewRNG(uint64(n)*1000 + uint64(s*100))
			mirror := *rng
			z := NewZipf(rng, n, s)
			cdf := floatZipfCDF(n, s)
			for i := 0; i < draws; i++ {
				got := z.Next()
				u := mirror.Float64()
				want := sort.SearchFloat64s(cdf, u)
				// Normalization can leave cdf[n-1] a hair under 1; a u
				// above it maps to the last rank.
				if want == n {
					want = n - 1
				}
				if got != want {
					t.Fatalf("n=%d s=%v draw %d: Next()=%d, CDF lower bound of u=%v is %d",
						n, s, i, got, u, want)
				}
			}
		}
	}
}

// TestZipfIndexSizedToTable pins the search index's size: the smallest
// power of two at or above both the rank count and the inverse of the
// lightest rank's mass, capped at zipfMaxIndexBuckets, plus the closing
// entry; uint16 entries up to zipfCompactRanks ranks. Below the cap a
// bucket brackets at most one rank boundary, so a draw resolves in at
// most one compare.
func TestZipfIndexSizedToTable(t *testing.T) {
	for _, c := range []struct {
		n       int
		s       float64
		buckets int
	}{
		{1, 0.99, 1}, {2, 0.99, 4}, {3, 0.99, 8}, {37, 0.99, 256}, {155, 0.99, 1024},
		{155, 0.75, 512}, {155, 1.1, 2048}, {255, 0.99, 2048}, {256, 0.99, 2048},
		{257, 0.99, 2048}, {309, 0.99, 2048}, {4096, 0.99, 32768}, {32768, 0.99, 32768},
		{40000, 0.99, 32768}, {65536, 0.99, 32768}, {65537, 0.99, 32768},
	} {
		z := NewZipf(NewRNG(1), c.n, c.s)
		tab := z.tab
		idx := make([]int, 0, len(tab.idx16)+len(tab.idx32))
		for _, r := range tab.idx16 {
			idx = append(idx, int(r))
		}
		for _, r := range tab.idx32 {
			idx = append(idx, int(r))
		}
		if got := len(idx); got != c.buckets+1 {
			t.Errorf("n=%d s=%v: index has %d entries, want %d", c.n, c.s, got, c.buckets+1)
			continue
		}
		if compact := tab.idx16 != nil; compact != (c.n <= zipfCompactRanks) {
			t.Errorf("n=%d: compact index %v, want %v", c.n, compact, c.n <= zipfCompactRanks)
		}
		if want := 53 - uint(math.Log2(float64(c.buckets))); tab.shift != want {
			t.Errorf("n=%d s=%v: bucket shift %d, want %d", c.n, c.s, tab.shift, want)
		}
		if c.buckets == zipfMaxIndexBuckets {
			continue
		}
		for b := 0; b+1 < len(idx); b++ {
			if idx[b+1]-idx[b] > 1 {
				t.Errorf("n=%d s=%v: bucket %d brackets ranks [%d,%d]", c.n, c.s, b, idx[b], idx[b+1])
				break
			}
		}
	}
}

// TestZipfNextAllocatesNothing pins the table sampler's steady state.
func TestZipfNextAllocatesNothing(t *testing.T) {
	for _, n := range []int{155, 70000} {
		z := NewZipf(NewRNG(5), n, 0.99)
		if a := testing.AllocsPerRun(1000, func() { z.Next() }); a != 0 {
			t.Errorf("n=%d: Zipf.Next allocates %v per draw", n, a)
		}
	}
}

func BenchmarkZipfNext(b *testing.B) {
	for _, n := range []int{155, 32768} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			z := NewZipf(NewRNG(7), n, 0.99)
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += z.Next()
			}
			_ = sink
		})
	}
}
