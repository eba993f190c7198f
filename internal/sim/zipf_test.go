package sim

import (
	"sort"
	"testing"
)

// TestZipfNextIsCDFLowerBound pins the table sampler's exactness: every
// rank Next draws is the lower bound of its uniform u in the CDF, so the
// search index's fan-out can change without moving a single sample.
// A mirror RNG, cloned before the first draw, replays each u.
func TestZipfNextIsCDFLowerBound(t *testing.T) {
	const draws = 100_000
	for _, n := range []int{1, 2, 37, 155, 255, 256, 257, 309, 4096, 32767, 32768, 32769, 40000} {
		for _, s := range []float64{0.75, 0.99, 1.1} {
			rng := NewRNG(uint64(n)*1000 + uint64(s*100))
			mirror := *rng
			z := NewZipf(rng, n, s)
			cdf := z.tab.cdf
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

// TestZipfIndexSizedToTable pins the search index's size: one bucket
// per rank rounded up to a power of two, capped at zipfMaxIndexBuckets,
// plus the closing entry.
func TestZipfIndexSizedToTable(t *testing.T) {
	for _, c := range []struct{ n, buckets int }{
		{1, 1}, {2, 2}, {3, 4}, {37, 64}, {155, 256}, {255, 256}, {256, 256},
		{257, 512}, {4096, 4096}, {32767, 32768}, {32768, 32768}, {32769, 32768},
		{40000, 32768},
	} {
		z := NewZipf(NewRNG(1), c.n, 0.99)
		if got := len(z.tab.idx); got != c.buckets+1 {
			t.Errorf("n=%d: index has %d entries, want %d", c.n, got, c.buckets+1)
		}
		if z.tab.buckets != float64(c.buckets) {
			t.Errorf("n=%d: bucket scale %v, want %d", c.n, z.tab.buckets, c.buckets)
		}
	}
}
