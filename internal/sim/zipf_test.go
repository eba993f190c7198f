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
	for _, n := range []int{1, 2, 37, 155, 309, 4096, 40000} {
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
