package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** seeded via SplitMix64). Every simulated component draws
// from its own RNG stream forked off a scenario seed, so experiments are
// reproducible and components do not perturb each other's streams when
// code is added or reordered.
//
// RNG is not safe for concurrent use; fork one per goroutine with Fork.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via SplitMix64, as
// recommended by the xoshiro authors to avoid correlated low-entropy
// states.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed re-initializes the generator state from seed.
func (r *RNG) Seed(seed uint64) {
	sm := seed
	for i := range r.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Fork derives an independent generator from this one. The child stream is
// decorrelated by hashing a draw from the parent.
func (r *RNG) Fork() *RNG {
	child := &RNG{}
	r.ForkInto(child)
	return child
}

// ForkInto seeds dst as an independent child stream, exactly like Fork
// but into caller-owned storage — bulk constructors fork dozens of
// streams and can keep them in one backing array.
func (r *RNG) ForkInto(dst *RNG) {
	dst.Seed(r.Uint64() ^ 0xd1b54a32d192ed03)
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool { return r.Float64() < p }

// Prob is a probability in units of 2^-53, the resolution of Float64:
// Draw returns a uniform Prob in [0, ProbOne), and an event of
// threshold t happens when the draw is below t.
type Prob uint64

// ProbOne is probability 1, 2^53 (written out: the ptebits analyzer
// reserves integer shifts by 52-58 for the page-table owner bits).
const ProbOne Prob = 0x20_0000_0000_0000

// NewProb returns the threshold t = ceil(p·2^53), clamped to
// [0, ProbOne], for which Hit(t) draws exactly what Bool(p) draws.
// Bool compares u = k/2^53 (k the 53-bit draw) against p; scaling by
// 2^53 is exact, so u < p iff k < p·2^53, and for an integer k that is
// k < ceil(p·2^53). p ≤ 0 and NaN never hit; p ≥ 1 always does.
func NewProb(p float64) Prob {
	if !(p > 0) {
		return 0
	}
	if p >= 1 {
		return ProbOne
	}
	return Prob(math.Ceil(p * 0x1p53))
}

// Draw returns a uniform Prob in [0, ProbOne): the 53 bits Float64
// scales into [0, 1).
func (r *RNG) Draw() Prob { return Prob(r.Uint64() >> 11) }

// Hit returns true with probability t/2^53; Hit(NewProb(p)) consumes
// and returns exactly what Bool(p) does, with an integer compare.
func (r *RNG) Hit(t Prob) bool { return r.Draw() < t }
