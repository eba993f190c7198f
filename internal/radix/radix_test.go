package radix

import (
	"cmp"
	"math"
	"slices"
	"testing"
)

type el struct {
	heat float64
	app  int
	vp   uint64
}

// refOrder is the comparison sort the radix sort must reproduce:
// heat descending, then app ascending, then vp ascending.
func refOrder(x, y el) int {
	switch {
	case x.heat > y.heat:
		return -1
	case x.heat < y.heat:
		return 1
	case x.app != y.app:
		return x.app - y.app
	case x.vp < y.vp:
		return -1
	case x.vp > y.vp:
		return 1
	default:
		return 0
	}
}

func TestFloatKeyMonotone(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2.5, -1, -math.SmallestNonzeroFloat64,
		math.Copysign(0, -1), 0, math.SmallestNonzeroFloat64, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(vals); i++ {
		a, b := vals[i-1], vals[i]
		if a < b && FloatKeyAsc(a) >= FloatKeyAsc(b) {
			t.Errorf("FloatKeyAsc not monotone at %g < %g", a, b)
		}
		if a < b && FloatKeyDesc(a) <= FloatKeyDesc(b) {
			t.Errorf("FloatKeyDesc not antitone at %g < %g", a, b)
		}
	}
	if FloatKeyAsc(0) != FloatKeyAsc(math.Copysign(0, -1)) {
		// ±0 compare equal as floats; their keys differ, which is fine for
		// rankings (heats are never -0) but worth pinning as a known edge.
		t.Log("±0 keys differ (expected: bits transform distinguishes them)")
	}
}

func TestSortMatchesComparisonSort(t *testing.T) {
	// Deterministic pseudo-random stream (xorshift), including duplicate
	// heats, duplicate (heat, app) pairs, zeros, and negatives.
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	var b Buf[el]
	for _, n := range []int{0, 1, 2, 3, 17, 256, 4096} {
		items := make([]el, n)
		for i := range items {
			heats := []float64{0, 1, 1, 2.5, -3, 1e-9, 7, 7, 7}
			items[i] = el{
				heat: heats[next()%uint64(len(heats))],
				app:  int(next() % 5),
				vp:   next() % 1_000_000,
			}
		}
		want := slices.Clone(items)
		slices.SortFunc(want, refOrder)

		major, minor := b.Keys(n)
		for i, it := range items {
			major[i] = FloatKeyDesc(it.heat)
			minor[i] = uint64(it.app)<<36 | it.vp
		}
		got := b.Sort(items, major, minor)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: radix order diverges from comparison sort", n)
		}
	}
}

// key is one element's composite key in the selection tests; elements
// are identified by their input position, so a result that reorders
// equal keys differs from the stable reference.
type key struct{ maj, min uint64 }

// checkSelect pins the selection contract on one input: Sort is the
// stable sort, Select returns its first k elements in order, and Cut's
// cutoff admits exactly those elements while leaving the keys intact.
func checkSelect(tb testing.TB, keys []key, k int, b *Buf[int], sel *Select[int]) {
	tb.Helper()
	n := len(keys)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	want := slices.Clone(ids)
	slices.SortStableFunc(want, func(x, y int) int {
		if c := cmp.Compare(keys[x].maj, keys[y].maj); c != 0 {
			return c
		}
		return cmp.Compare(keys[x].min, keys[y].min)
	})
	prefix := want[:min(max(k, 0), n)]

	major, minor := b.Keys(n)
	for i, kk := range keys {
		major[i], minor[i] = kk.maj, kk.min
	}
	if got := b.Sort(slices.Clone(ids), major, minor); !slices.Equal(got, want) {
		tb.Fatalf("n=%d: Sort is not the stable sort: got %v want %v", n, got, want)
	}

	sel.Reset(k)
	for i, kk := range keys {
		sel.Offer(kk.maj, kk.min, i)
	}
	if got := sel.Sorted(); !slices.Equal(got, prefix) {
		tb.Fatalf("n=%d k=%d: Select = %v, want stable prefix %v", n, k, got, prefix)
	}

	major, minor = b.Keys(n)
	for i, kk := range keys {
		major[i], minor[i] = kk.maj, kk.min
	}
	c := b.Cut(major, minor, k)
	inPrefix := make([]bool, n)
	for _, id := range prefix {
		inPrefix[id] = true
	}
	for i, kk := range keys {
		if major[i] != kk.maj || minor[i] != kk.min {
			tb.Fatalf("n=%d k=%d: Cut modified key %d", n, k, i)
		}
		if got := c.Admit(kk.maj, kk.min); got != inPrefix[i] {
			tb.Fatalf("n=%d k=%d: cutoff %+v admits element %d = %v, want %v", n, k, c, i, got, inPrefix[i])
		}
	}
}

// decodeKeys turns arbitrary bytes into keys, three bytes an element:
// the first places the other two at any byte position of the major and
// minor keys, so every radix digit sees traffic and duplicates are
// common.
func decodeKeys(data []byte) []key {
	keys := make([]key, 0, len(data)/3)
	for ; len(data) >= 3; data = data[3:] {
		keys = append(keys, key{
			maj: uint64(data[1]) << (8 * (data[0] & 7)),
			min: uint64(data[2]) << (8 * (data[0] >> 3 & 7)),
		})
	}
	return keys
}

// selectCases are the property test's inputs, also the fuzz seeds:
// duplicate keys, all-equal keys, one element, and streams long enough
// to make the selector cut several times.
func selectCases() [][]byte {
	s := uint64(0x2545f4914f6cdd1d)
	next := func() byte {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return byte(s)
	}
	random := func(n int, mask byte) []byte {
		out := make([]byte, 3*n)
		for i := range out {
			out[i] = next() & mask
		}
		return out
	}
	return [][]byte{
		nil,
		{1, 2, 3},
		random(2, 0xFF),
		make([]byte, 3*40), // all keys equal (zero)
		random(40, 0x01),   // two values per byte: heavy duplication
		random(257, 0x07),  // duplicates across low digits
		random(300, 0xFF),  // mostly distinct
		random(2048, 0x3F), // long stream, many cuts
		random(2048, 0xFF),
	}
}

// TestSelectMatchesSortPrefix pins the selection contract: Cut, Select
// and the stable sort's first k agree, for every k from 0 past n.
func TestSelectMatchesSortPrefix(t *testing.T) {
	var b Buf[int]
	var sel Select[int]
	for _, data := range selectCases() {
		keys := decodeKeys(data)
		n := len(keys)
		for _, k := range []int{-1, 0, 1, 2, 3, n / 3, n/2 + 1, n - 1, n, n + 7} {
			checkSelect(t, keys, k, &b, &sel)
		}
	}
	// Real ranking keys: heat descending, then app, then page.
	s := uint64(0x9e3779b97f4a7c15)
	var keys []key
	for i := 0; i < 5000; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		heat := []float64{0, 1, 1, 2.5, 7, 7, 1e-9, 3e5}[s%8]
		keys = append(keys, key{FloatKeyDesc(heat), (s>>8)%3<<36 | (s>>16)%100_000})
	}
	for _, k := range []int{1, 64, 1300, 2600, 4999} {
		checkSelect(t, keys, k, &b, &sel)
	}
}

// presorted returns keys with the same major keys in place and the
// minor keys in ascending order: the shape every ranker offers, pages
// in ascending order, which lets Sort skip the minor passes.
func presorted(keys []key) []key {
	out := slices.Clone(keys)
	mins := make([]uint64, len(keys))
	for i, kk := range keys {
		mins[i] = kk.min
	}
	slices.Sort(mins)
	for i := range out {
		out[i].min = mins[i]
	}
	return out
}

// TestSortPresortedMinor checks the minor-pass skip against the stable
// sort: minor keys already ascending, ascending but for one inversion
// (at the front, in the middle, at the end), and all equal, over
// majors that vary in one byte, in several, or not at all.
func TestSortPresortedMinor(t *testing.T) {
	var b Buf[int]
	var sel Select[int]
	s := uint64(0x2545f4914f6cdd1d)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	majors := map[string]func(i int) uint64{
		"one byte":   func(int) uint64 { return next() % 7 },
		"heats":      func(int) uint64 { return FloatKeyDesc([]float64{0, 1, 2.5, 7, 1e-9, 3e5}[next()%6]) },
		"all equal":  func(int) uint64 { return 42 },
		"descending": func(i int) uint64 { return uint64(1_000_000 - i) },
	}
	for name, major := range majors {
		for _, n := range []int{2, 3, 64, 300, 2049} {
			keys := make([]key, n)
			for i := range keys {
				keys[i] = key{major(i), uint64(i) * 3 << 20}
			}
			checkSelect(t, keys, n/3+1, &b, &sel)
			for _, at := range []int{1, n / 2, n - 1} {
				inv := slices.Clone(keys)
				inv[at].min, inv[at-1].min = inv[at-1].min, inv[at].min
				if inv[at].min == inv[at-1].min {
					t.Fatalf("%s n=%d: swap at %d made no inversion", name, n, at)
				}
				checkSelect(t, inv, n/2, &b, &sel)
			}
			equal := slices.Clone(keys)
			for i := range equal {
				equal[i].min = 5
			}
			checkSelect(t, equal, n-1, &b, &sel)
		}
	}
}

// FuzzSelect checks the selection contract on arbitrary keys and k, and
// on the same keys with their minor keys put in ascending order.
func FuzzSelect(f *testing.F) {
	for i, data := range selectCases() {
		f.Add(data, uint16(i*7))
	}
	var b Buf[int]
	var sel Select[int]
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		keys := decodeKeys(data)
		kk := int(k)%(len(keys)+3) - 1
		checkSelect(t, keys, kk, &b, &sel)
		checkSelect(t, presorted(keys), kk, &b, &sel)
	})
}

func TestSelectReusesBuffers(t *testing.T) {
	var sel Select[el]
	const n, k = 4096, 300
	allocs := testing.AllocsPerRun(20, func() {
		sel.Reset(k)
		for i := 0; i < n; i++ {
			sel.Offer(FloatKeyDesc(float64(i*7919%n)), uint64(i), el{vp: uint64(i)})
		}
		if got := sel.Sorted(); len(got) != k {
			t.Fatalf("selected %d, want %d", len(got), k)
		}
	})
	if allocs > 0.5 {
		t.Fatalf("steady-state Select allocates %.1f times per run, want 0", allocs)
	}
}

// TestSortReusesBuffers pins Sort's steady state at zero allocations,
// both with every pass (descending pages) and with the minor passes
// skipped (ascending pages).
func TestSortReusesBuffers(t *testing.T) {
	for _, ascending := range []bool{false, true} {
		var b Buf[el]
		const n = 512
		allocs := testing.AllocsPerRun(20, func() {
			items := b.spare // reuse the spare as the input to avoid per-run allocation
			if cap(items) < n {
				items = make([]el, n)
			}
			items = items[:n]
			for i := range items {
				vp := uint64(n - i)
				if ascending {
					vp = uint64(i)
				}
				items[i] = el{heat: float64(i % 7), vp: vp}
			}
			major, minor := b.Keys(n)
			for i, it := range items {
				major[i] = FloatKeyDesc(it.heat)
				minor[i] = it.vp
			}
			b.Sort(items, major, minor)
		})
		if allocs > 0.5 {
			t.Fatalf("ascending=%v: steady-state Sort allocates %.1f times per run, want 0", ascending, allocs)
		}
	}
}
