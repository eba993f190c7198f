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
	tab     *zipfTable // shared integer CDF + search index (exact mode)
	approx  bool
	s       float64
	hIntegX float64 // integral-based sampler state for large n
	hX0     float64
}

// zipfExactThreshold bounds the table-based sampler; beyond it we use the
// rejection-inversion method (Hörmann & Derflinger) that needs O(1) space.
const zipfExactThreshold = 1 << 20

// zipfMaxIndexBuckets caps the fan-out of the CDF search index. Each
// bucket b of a table with B = 2^m buckets covers the 53-bit draws k
// with k >> (53-m) == b; the index pins the binary search to the few
// ranks whose CDF boundaries fall in that range, so a draw resolves in
// one or two compares instead of O(log n). The fan-out only narrows the
// search bracket — the sampled rank is the CDF lower bound of the draw
// under any bucket count — so it is purely a speed/space choice. A
// table gets the smallest power of two at or above both its rank count
// and the inverse of its smallest rank mass, capped here: every rank
// then spans at least a bucket, so a bucket holds at most one rank
// boundary. A 155-rank fleet table's index is 2 KiB of uint16 entries
// and stays in cache; the largest tables cost 64 KiB (128 KiB of
// uint32 entries past zipfCompactRanks) and leave their lightest ranks
// sharing buckets.
const zipfMaxIndexBuckets = 32768

// zipfIndexBuckets returns the search-index fan-out for an n-rank table
// whose lightest rank carries minMass of the total:
// min(zipfMaxIndexBuckets, the first power of two >= max(n, 1/minMass)).
func zipfIndexBuckets(n int, minMass float64) int {
	need := float64(n)
	if inv := 1 / minMass; inv > need {
		need = inv
	}
	if need >= zipfMaxIndexBuckets {
		return zipfMaxIndexBuckets
	}
	return 1 << bits.Len(uint(math.Ceil(need))-1)
}

// zipfCompactRanks is the largest rank count whose index fits uint16
// entries (ranks 0..65535).
const zipfCompactRanks = 1 << 16

// zipfTable is the immutable sampling table for one (n, s) pair: the
// cumulative distribution in 2^-53 units plus an index into it. Tables
// are pure functions of (n, s), so they are built once and shared
// process-wide — every thread of an app samples the same region size
// and skew, and sweeps rebuild identical scenarios many times over.
//
// Draws are 53-bit integers k (the bits Float64 scales into [0, 1)),
// and cdf[r] = floor(F(r)·2^53) for the float CDF F. Scaling by 2^53 is
// exact, so F(r) < k/2^53 iff F(r)·2^53 < k iff cdf[r] < k for integer
// k: the integer search returns the float search's rank for every draw.
type zipfTable struct {
	cdf []uint64 // floor(F(r)·2^53), len n
	// idx[b] is the smallest rank r with cdf[r] >= b<<shift (capped at
	// n-1); idx[b] and idx[b+1] bracket the answer for any draw in
	// bucket b. len(idx) is B+1 with B = 2^(53-shift); idx16 holds the
	// entries when n <= zipfCompactRanks and idx32 otherwise.
	idx16 []uint16
	idx32 []uint32
	shift uint // 53 - log2(B): a draw's bucket is k >> shift
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
	t := &zipfTable{cdf: make([]uint64, n)}
	// The float CDF is built in place through the slice's bits: the
	// running sums, then each scaled by 1/sum and stored as its 2^53
	// floor, so no float table outlives the build.
	sum, last := 0.0, 0.0
	for k := 0; k < n; k++ {
		last = 1.0 / math.Pow(float64(k+1), s)
		sum += last
		t.cdf[k] = math.Float64bits(sum)
	}
	inv := 1.0 / sum
	for k, v := range t.cdf {
		f := math.Float64frombits(v) * inv // the float CDF, rounded
		t.cdf[k] = uint64(math.Floor(f * 0x1p53))
	}
	nb := zipfIndexBuckets(n, last*inv)
	t.shift = 53 - uint(bits.TrailingZeros(uint(nb)))
	r := 0
	if n <= zipfCompactRanks {
		t.idx16 = make([]uint16, nb+1)
	} else {
		t.idx32 = make([]uint32, nb+1)
	}
	for b := 0; b <= nb; b++ {
		threshold := uint64(b) << t.shift
		for r < n-1 && t.cdf[r] < threshold {
			r++
		}
		if t.idx16 != nil {
			t.idx16[b] = uint16(r)
		} else {
			t.idx32[b] = uint32(r)
		}
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
		// k is the draw Float64 would scale to u = k/2^53; cdf and the
		// bucket bounds are in the same units (see zipfTable).
		k := z.rng.Uint64() >> 11
		tab := z.tab
		b := k >> tab.shift
		var lo, hi int
		if tab.idx16 != nil {
			lo, hi = int(tab.idx16[b]), int(tab.idx16[b+1])
		} else {
			lo, hi = int(tab.idx32[b]), int(tab.idx32[b+1])
		}
		cdf := tab.cdf
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cdf[mid] < k {
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
