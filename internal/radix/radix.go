// Package radix provides a stable LSD radix sort and an exact MSD radix
// select over parallel key arrays, used by the per-epoch ranking paths
// (policy candidate selection, promotion-queue ordering) in place of
// comparison sorts.
//
// Callers express their comparator as a composite (major, minor) uint64
// key pair per element; the sort orders by major ascending, then minor
// ascending. Because every ranking comparator in the tree is a total
// order (heat, then owner app, then page number), the composite key
// reproduces the comparison sort's output exactly — no reliance on input
// order or stability subtleties. Descending float orders are expressed
// through the key transforms below. Rankings that consume only a prefix
// select it (Cut, Select) instead of sorting everything.
package radix

import (
	"math"
	"math/bits"
)

// FloatKeyAsc maps f to a uint64 whose unsigned ascending order matches
// f's ascending order (monotone float-bits transform, valid across the
// full float64 range including negatives and zeros of either sign).
func FloatKeyAsc(f float64) uint64 {
	k := math.Float64bits(f)
	if k>>63 == 1 {
		return ^k
	}
	return k ^ 1<<63
}

// FloatKeyDesc maps f to a uint64 whose unsigned ascending order matches
// f's descending order.
func FloatKeyDesc(f float64) uint64 { return ^FloatKeyAsc(f) }

// Buf holds one caller's reusable sort buffers. Each owner carries its
// own instance (simulations are single-threaded, but lab workers run
// whole simulations in parallel, so shared package-level scratch would
// race). The zero value is ready to use.
type Buf[T any] struct {
	spare      []T
	major      []uint64
	minor      []uint64
	majorSpare []uint64
	minorSpare []uint64
}

// Keys returns the major and minor key arrays sized for n elements,
// growing the backing buffers once at each high-water mark. The caller
// fills both before Sort; contents do not persist across calls.
func (b *Buf[T]) Keys(n int) (major, minor []uint64) {
	if cap(b.major) < n {
		// Jump to a power of two so a slowly growing candidate count does
		// not reallocate the buffers every epoch.
		c := 1 << bits.Len(uint(n-1))
		b.major = make([]uint64, c)
		b.minor = make([]uint64, c)
		b.majorSpare = make([]uint64, c)
		b.minorSpare = make([]uint64, c)
	}
	return b.major[:n], b.minor[:n]
}

// Sort stably reorders a by (major, minor) ascending, where the key
// arrays were obtained from Keys and filled by the caller. It returns
// the sorted slice, which aliases either a's backing array or the
// buffer's spare (the other is retained as the next call's spare). Key
// contents are consumed. Passes whose byte is uniform across all keys
// are skipped, so narrow key ranges (small page numbers, few apps) cost
// close to nothing, and so are all the minor passes when the minor keys
// arrive in ascending order: a stable sort of sorted keys is the
// identity, so the major passes alone give the (major, minor) order.
// The per-app rankers offer their pages in ascending page order, which
// is their minor key.
func (b *Buf[T]) Sort(a []T, major, minor []uint64) []T {
	n := len(a)
	if n < 2 {
		return a
	}
	if cap(b.spare) < n {
		b.spare = make([]T, max(n, cap(b.major)))
	}
	out := b.spare[:n]
	ka, kb := minor, b.minorSpare[:n]
	// Minor passes first (least significant), carrying the major keys
	// along so the later major passes see them in the permuted order.
	ca, cb := major, b.majorSpare[:n]
	// One linear scan finds the bytes that actually vary: a byte is
	// uniform across all keys exactly when its OR and AND agree, and a
	// uniform byte's counting pass would be an identity copy. Typical
	// rankings vary in only a handful of the sixteen bytes (small page
	// numbers, few apps, clustered heats), so most passes vanish here.
	var orMin, andMin, orMaj, andMaj uint64
	orMin, andMin = ka[0], ka[0]
	orMaj, andMaj = ca[0], ca[0]
	// A subtraction borrows exactly when a minor key is below its
	// predecessor, so down stays zero for ascending minor keys.
	var down uint64
	for i := 1; i < n; i++ {
		_, borrow := bits.Sub64(ka[i], ka[i-1], 0)
		down |= borrow
		orMin |= ka[i]
		andMin &= ka[i]
		orMaj |= ca[i]
		andMaj &= ca[i]
	}
	var counts [256]int
	pass := func(keys []uint64, shift uint) {
		clear(counts[:])
		for _, k := range keys {
			counts[(k>>shift)&0xFF]++
		}
		sum := 0
		for i := range counts {
			c := counts[i]
			counts[i] = sum
			sum += c
		}
		for i, k := range keys {
			j := counts[(k>>shift)&0xFF]
			counts[(k>>shift)&0xFF] = j + 1
			out[j] = a[i]
			kb[j] = ka[i]
			cb[j] = ca[i]
		}
		a, out = out, a
		ka, kb = kb, ka
		ca, cb = cb, ca
	}
	varMin := orMin ^ andMin
	if down == 0 {
		varMin = 0
	}
	varMaj := orMaj ^ andMaj
	for shift := uint(0); shift < 64; shift += 8 {
		if (varMin>>shift)&0xFF != 0 {
			pass(ka, shift)
		}
	}
	for shift := uint(0); shift < 64; shift += 8 {
		if (varMaj>>shift)&0xFF != 0 {
			pass(ca, shift)
		}
	}
	b.spare = out
	b.major, b.majorSpare = ca, cb
	b.minor, b.minorSpare = ka, kb
	return a
}

// fitSpares grows the spare key arrays to hold n keys, to at least the
// live arrays' capacity so all four grow together at each high-water
// mark.
func (b *Buf[T]) fitSpares(n int) {
	if cap(b.majorSpare) < n || cap(b.minorSpare) < n {
		c := max(n, cap(b.major), cap(b.minor))
		b.majorSpare = make([]uint64, c) //vulcan:allowalloc grow-once scratch, reused across epochs
		b.minorSpare = make([]uint64, c) //vulcan:allowalloc grow-once scratch, reused across epochs
	}
}

// Cutoff is the boundary of a stable sort's first k elements: the k-th
// smallest composite key, and how many of the elements carrying exactly
// that key the prefix includes (the earliest Eq of them in input order).
type Cutoff struct {
	Maj, Min uint64
	Eq       int
}

// Admit reports whether an element with key (maj, min) belongs to the
// prefix, for elements visited in their input order: every key below
// the cutoff does, and so do the first Eq keys equal to it. Admit counts
// those down, so each element must be visited exactly once; once Eq is
// zero it admits exactly the keys strictly below the cutoff.
func (c *Cutoff) Admit(maj, min uint64) bool {
	if maj != c.Maj {
		return maj < c.Maj
	}
	if min != c.Min {
		return min < c.Min
	}
	if c.Eq > 0 {
		c.Eq--
		return true
	}
	return false
}

// Cut finds the boundary of the first k elements of a stable Sort by
// (major, minor) without sorting: an MSD radix select that histograms
// one key byte at a time, most significant first, and keeps only the
// bucket holding the k-th smallest key. The first pass reads every key;
// each later pass touches only the surviving bucket, which it filters
// into the buffer's spare arrays (a byte the survivors share is skipped
// without copying). major and minor are left unchanged, so the caller
// can classify its elements against the result with Cutoff.Admit. k is
// clamped to [0, len(major)]; at k = 0 the cutoff admits nothing.
func (b *Buf[T]) Cut(major, minor []uint64, k int) Cutoff {
	n := len(major)
	if k <= 0 || n == 0 {
		return Cutoff{}
	}
	k = min(k, n)
	b.fitSpares(n)
	maj, mnr := major, minor
	var counts [256]int
	// Digits 15..8 are the major key's bytes, 7..0 the minor's. One
	// survivor is the k-th smallest key itself.
	for d := 15; d >= 0 && len(maj) > 1; d-- {
		keys, shift := mnr, uint(d*8)
		if d >= 8 {
			keys, shift = maj, uint(d-8)*8
		}
		clear(counts[:])
		for _, x := range keys {
			counts[x>>shift&0xFF]++
		}
		bucket := 0
		for k > counts[bucket] {
			k -= counts[bucket]
			bucket++
		}
		m := counts[bucket]
		if m == len(keys) {
			continue
		}
		// Filtering keeps input order, so the survivors' ties stay in
		// stable-sort order. It may run in place: the write index never
		// passes the read index.
		outMaj, outMin := b.majorSpare[:m], b.minorSpare[:m]
		j := 0
		for i, x := range keys {
			if x>>shift&0xFF == uint64(bucket) {
				outMaj[j], outMin[j] = maj[i], mnr[i]
				j++
			}
		}
		maj, mnr = outMaj, outMin
	}
	// Every survivor carries the cut key; k is now its rank among them.
	return Cutoff{Maj: maj[0], Min: mnr[0], Eq: k}
}

// Select keeps the k smallest elements of a stream under the composite
// (major, minor) key order, ties in input order, and returns them
// sorted: exactly the first k elements a stable Sort of the whole stream
// would emit. Offers append to a buffer; when it holds 2k elements, Cut
// shrinks it back to the k smallest, and from then on an offer at or
// above the cutoff costs one comparison. The buffers grow with the
// number of elements actually admitted, never with k, so a generous k
// over a short stream costs no memory. Each owner carries its own
// instance; call Reset before the first Offer of every stream.
type Select[T any] struct {
	buf     Buf[T]
	val     []T
	k       int
	bounded bool   // only keys strictly below cut are admitted
	cut     Cutoff // with Eq zero whenever bounded
}

// Reset prepares the selector to keep the k smallest of a new stream,
// reusing the backing arrays.
func (s *Select[T]) Reset(k int) {
	s.k = max(k, 0)
	s.val = s.val[:0]
	s.buf.major, s.buf.minor = s.buf.major[:0], s.buf.minor[:0]
	// A zero cutoff admits nothing, which is all k = 0 keeps.
	s.bounded, s.cut = s.k == 0, Cutoff{}
}

// Offer considers one element. It is admitted unless k elements already
// seen are known to order before it.
//
//vulcan:hotpath
func (s *Select[T]) Offer(maj, min uint64, v T) {
	if s.bounded && !s.cut.Admit(maj, min) {
		return
	}
	if len(s.val) == cap(s.val) {
		s.grow()
	}
	s.buf.major = append(s.buf.major, maj)
	s.buf.minor = append(s.buf.minor, min)
	s.val = append(s.val, v)
	if len(s.val) >= 2*s.k {
		s.shrink()
	}
}

// grow doubles the buffers' capacity. Like Keys, it jumps by powers of
// two, so a slowly rising candidate count reallocates rarely.
func (s *Select[T]) grow() {
	c := max(64, 2*cap(s.val))
	s.val = append(make([]T, 0, c), s.val...)                  //vulcan:allowalloc grow-once selection buffer, reused across epochs
	s.buf.major = append(make([]uint64, 0, c), s.buf.major...) //vulcan:allowalloc grow-once selection buffer, reused across epochs
	s.buf.minor = append(make([]uint64, 0, c), s.buf.minor...) //vulcan:allowalloc grow-once selection buffer, reused across epochs
}

// shrink cuts the buffer back to its k smallest elements, in input
// order, and bounds later offers by their cutoff.
func (s *Select[T]) shrink() {
	b := &s.buf
	c := b.Cut(b.major, b.minor, s.k)
	j := 0
	for i := range s.val {
		if c.Admit(b.major[i], b.minor[i]) {
			b.major[j], b.minor[j], s.val[j] = b.major[i], b.minor[i], s.val[i]
			j++
		}
	}
	b.major, b.minor, s.val = b.major[:j], b.minor[:j], s.val[:j]
	s.bounded, s.cut = true, c // Admit has counted c.Eq down to zero
}

// Sorted returns the selected elements in (major, minor) order. The
// slice aliases the selector's buffers: it is valid until the next Reset
// and must not be retained across streams.
func (s *Select[T]) Sorted() []T {
	if len(s.val) > s.k {
		s.shrink()
	}
	b := &s.buf
	b.fitSpares(len(s.val))
	s.val = b.Sort(s.val, b.major, b.minor)
	return s.val
}
