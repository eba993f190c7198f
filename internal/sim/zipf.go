package sim

import (
	"math"
	"math/bits"
	"sync"
)

// Zipf draws from a Zipfian distribution over [0, n) with skew parameter
// s > 0 using precomputed tables; construct with NewZipf.
type Zipf struct {
	rng     *RNG
	n       int
	tab     *zipfTable // shared CDF + search index (exact mode)
	approx  bool
	s       float64
	hIntegX float64 // integral-based sampler state for large n
	hX0     float64
}

// zipfExactThreshold bounds the table-based sampler; beyond it we use the
// rejection-inversion method (Hörmann & Derflinger) that needs O(1) space.
const zipfExactThreshold = 1 << 20

// zipfMaxIndexBuckets caps the fan-out of the coarse CDF search index.
// Each bucket b of a table with B buckets covers u in [b/B, (b+1)/B);
// the index pins the binary search to the few ranks whose CDF mass
// straddles that interval, so hot (high-mass) draws resolve in O(1)
// instead of O(log n). B is a power of two, which keeps u*B exact in
// float64 as the bracketing proof requires. The fan-out only narrows the
// search bracket — the sampled rank is the CDF lower bound for u under
// any bucket count — so it is purely a speed/space choice. A table gets
// the smallest power of two at or above its rank count, capped here:
// about one bucket per rank, so a 300-rank table's index is 2 KiB and
// stays in cache, while the largest tables cost 128 KiB and leave most
// tail buckets spanning a handful of ranks.
const zipfMaxIndexBuckets = 32768

// zipfIndexBuckets returns the search-index fan-out for an n-rank table:
// min(zipfMaxIndexBuckets, the first power of two >= n).
func zipfIndexBuckets(n int) int {
	if n >= zipfMaxIndexBuckets {
		return zipfMaxIndexBuckets
	}
	return 1 << bits.Len(uint(n-1))
}

// zipfTable is the immutable sampling table for one (n, s) pair: the
// cumulative distribution plus a coarse index into it. Tables are pure
// functions of (n, s), so they are built once and shared process-wide —
// every thread of an app samples the same region size and skew, and
// sweeps rebuild identical scenarios many times over.
type zipfTable struct {
	cdf []float64 // cumulative probabilities, len n
	// idx[b] is the smallest rank r with cdf[r] >= b/B (capped at n-1);
	// idx[b] and idx[b+1] bracket the answer for any u in bucket b.
	// len(idx) is B+1 with B = zipfIndexBuckets(n).
	idx     []int32
	buckets float64 // B, the bucket count, as the u scale
}

type zipfKey struct {
	n int
	s float64
}

var (
	// zipfMu guards first-build of a table; the contents are a pure
	// function of (n, s), so serial and parallel runs see identical
	// tables no matter which lab worker builds one first.
	zipfMu     sync.Mutex //vulcan:lablocked guards construction of immutable shared tables
	zipfTables = map[zipfKey]*zipfTable{}
)

// zipfTableFor returns the shared table for (n, s), building it on first
// use. Tables are immutable after construction, so concurrent samplers
// (sweep workers) can share them freely.
func zipfTableFor(n int, s float64) *zipfTable {
	zipfMu.Lock()
	defer zipfMu.Unlock()
	if n == 1 {
		// One rank takes all the mass whatever the skew: one table
		// serves every skew, so probing generators at one page
		// (workload.AppConfig.Check) cannot grow the cache.
		s = 1
	}
	key := zipfKey{n: n, s: s}
	if t, ok := zipfTables[key]; ok {
		return t
	}
	t := &zipfTable{cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1.0 / math.Pow(float64(k+1), s)
		t.cdf[k] = sum
	}
	inv := 1.0 / sum
	for k := range t.cdf {
		t.cdf[k] *= inv
	}
	nb := zipfIndexBuckets(n)
	t.idx = make([]int32, nb+1)
	t.buckets = float64(nb)
	r := 0
	for b := 0; b <= nb; b++ {
		threshold := float64(b) / t.buckets
		for r < n-1 && t.cdf[r] < threshold {
			r++
		}
		t.idx[b] = int32(r)
	}
	zipfTables[key] = t
	return t
}

// NewZipf builds a Zipfian sampler over ranks [0, n) where rank k has
// probability proportional to 1/(k+1)^s.
func NewZipf(rng *RNG, n int, s float64) *Zipf {
	if n <= 0 {
		panic("sim: Zipf with non-positive n")
	}
	if s <= 0 {
		panic("sim: Zipf with non-positive skew")
	}
	z := &Zipf{rng: rng, n: n, s: s}
	if n <= zipfExactThreshold {
		z.tab = zipfTableFor(n, s)
		return z
	}
	z.approx = true
	z.hIntegX = z.hInteg(float64(n) + 0.5)
	z.hX0 = z.hInteg(1.5) - 1.0
	return z
}

// hInteg is the antiderivative of 1/x^s (rejection-inversion helper).
func (z *Zipf) hInteg(x float64) float64 {
	if z.s == 1.0 {
		return math.Log(x)
	}
	return (math.Pow(x, 1.0-z.s) - 1.0) / (1.0 - z.s)
}

func (z *Zipf) hIntegInv(x float64) float64 {
	if z.s == 1.0 {
		return math.Exp(x)
	}
	return math.Pow(1.0+x*(1.0-z.s), 1.0/(1.0-z.s))
}

// Next returns the next Zipf-distributed rank in [0, n).
//
//vulcan:hotpath
func (z *Zipf) Next() int {
	if !z.approx {
		u := z.rng.Float64()
		// u*B is exact (power-of-two scale), so b/B <= u < (b+1)/B and
		// idx brackets the CDF binary search to the bucket's ranks.
		tab := z.tab
		b := int(u * tab.buckets)
		if b >= len(tab.idx)-1 {
			b = len(tab.idx) - 2
		}
		cdf := tab.cdf
		lo, hi := int(tab.idx[b]), int(tab.idx[b+1])
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cdf[mid] < u {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	// Rejection-inversion for large n.
	for {
		u := z.hX0 + z.rng.Float64()*(z.hIntegX-z.hX0)
		x := z.hIntegInv(u)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > float64(z.n) {
			k = float64(z.n)
		}
		if u >= z.hInteg(k+0.5)-math.Pow(k, -z.s) {
			return int(k) - 1
		}
	}
}
