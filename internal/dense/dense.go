// Package dense provides a paged dense map from small-integer keys
// (virtual page numbers, region numbers) to nonzero uint64 values.
//
// Go maps keyed by page number dominate allocation profiles under
// insert/delete churn: deleted slots are never reclaimed, growth
// reallocates bucket groups, and every access pays a hash. The stores
// here use the same two-level chunk directory as the profiler heat
// tables — keys index directly into 512-entry chunks hanging off a
// 512-way directory — so lookups are three dereferences, iteration is
// ascending by construction (no sort needed for deterministic replay),
// and steady-state operation allocates nothing once a region's chunk
// exists. A chunk is 4 KiB: the small per-tenant key sets these maps
// hold (a few hundred pages) touch one or two of them.
//
// Value 0 is the "absent" sentinel; callers whose natural value range
// includes 0 bias by one (index+1, packed-frame+1).
package dense

const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift // keys per chunk
	chunkMask  = chunkSize - 1
	dirShift   = 9
	dirSize    = 1 << dirShift // chunks per directory block
	dirMask    = dirSize - 1
)

// chunk holds one 512-key region's values plus its live count, so
// sweeps skip fully-empty regions without touching the value array.
type chunk struct {
	v    [chunkSize]uint64
	live int
}

// Map is a paged dense map. The zero value is an empty map ready to use.
type Map struct {
	l1   []*[dirSize]*chunk
	live int
}

// Get returns the value stored for k, or 0 when absent.
//
//vulcan:hotpath
func (m *Map) Get(k uint64) uint64 {
	hi := k >> (chunkShift + dirShift)
	if hi >= uint64(len(m.l1)) {
		return 0
	}
	blk := m.l1[hi]
	if blk == nil {
		return 0
	}
	c := blk[k>>chunkShift&dirMask]
	if c == nil {
		return 0
	}
	return c.v[k&chunkMask]
}

// Set stores v (which must be nonzero) for k.
//
//vulcan:hotpath
func (m *Map) Set(k, v uint64) {
	if v == 0 {
		panic("dense: Set with zero value")
	}
	hi := k >> (chunkShift + dirShift)
	if hi >= uint64(len(m.l1)) {
		grown := make([]*[dirSize]*chunk, hi+1) //vulcan:allowalloc directory growth, once per 256Ki-key region
		copy(grown, m.l1)
		m.l1 = grown
	}
	blk := m.l1[hi]
	if blk == nil {
		blk = new([dirSize]*chunk) //vulcan:allowalloc directory block, once per 256Ki-key region
		m.l1[hi] = blk
	}
	ci := k >> chunkShift & dirMask
	c := blk[ci]
	if c == nil {
		c = new(chunk) //vulcan:allowalloc chunk allocation, once per 512-key region
		blk[ci] = c
	}
	i := k & chunkMask
	if c.v[i] == 0 {
		c.live++
		m.live++
	}
	c.v[i] = v
}

// Delete removes k, returning the previous value (0 when absent).
//
//vulcan:hotpath
func (m *Map) Delete(k uint64) uint64 {
	hi := k >> (chunkShift + dirShift)
	if hi >= uint64(len(m.l1)) {
		return 0
	}
	blk := m.l1[hi]
	if blk == nil {
		return 0
	}
	c := blk[k>>chunkShift&dirMask]
	if c == nil {
		return 0
	}
	i := k & chunkMask
	old := c.v[i]
	if old != 0 {
		c.v[i] = 0
		c.live--
		m.live--
	}
	return old
}

// Len returns the number of stored keys.
func (m *Map) Len() int { return m.live }

// ForEach calls fn for every stored key in ascending key order.
func (m *Map) ForEach(fn func(k, v uint64)) {
	for hi, blk := range m.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			base := uint64(hi)<<(chunkShift+dirShift) | uint64(ci)<<chunkShift
			for i, v := range c.v {
				if v == 0 {
					continue
				}
				fn(base|uint64(i), v)
			}
		}
	}
}

// Clear removes every key, keeping allocated chunks for reuse.
func (m *Map) Clear() {
	if m.live == 0 {
		return
	}
	for _, blk := range m.l1 {
		if blk == nil {
			continue
		}
		for _, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			clear(c.v[:])
			c.live = 0
		}
	}
	m.live = 0
}
