// Package dense provides a paged dense map from small-integer keys
// (virtual page numbers, region numbers) to nonzero uint64 values, and
// the chunk directory (Dir) it shares with the profiler's page stores.
//
// Go maps keyed by page number dominate allocation profiles under
// insert/delete churn: deleted slots are never reclaimed, growth
// reallocates bucket groups, and every access pays a hash. Map instead
// indexes keys directly into 512-entry chunks kept in a Dir, so lookups
// are three dereferences, iteration is ascending by construction (no
// sort needed for deterministic replay), and steady-state operation
// allocates nothing once a region's chunk exists. A chunk is 4 KiB: the
// small per-tenant key sets these maps hold (a few hundred pages) touch
// one or two of them.
//
// Value 0 is the "absent" sentinel; callers whose natural value range
// includes 0 bias by one (index+1, packed-frame+1).
package dense

const (
	chunkShift = 9
	chunkSize  = 1 << chunkShift // keys per chunk
	chunkMask  = chunkSize - 1
)

// chunk holds one 512-key region's values plus its live count, so
// sweeps skip fully-empty regions without touching the value array.
type chunk struct {
	v    [chunkSize]uint64
	live int
}

// Map is a paged dense map. The zero value is an empty map ready to use.
type Map struct {
	dir  Dir[chunk]
	live int
}

// Get returns the value stored for k, or 0 when absent.
//
//vulcan:hotpath
func (m *Map) Get(k uint64) uint64 {
	c := m.dir.Chunk(k >> chunkShift)
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
	c := m.dir.Ensure(k >> chunkShift)
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
	c := m.dir.Chunk(k >> chunkShift)
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
	for ci, c := m.dir.Next(0); c != nil; ci, c = m.dir.Next(ci + 1) {
		if c.live == 0 {
			continue
		}
		base := ci << chunkShift
		for i, v := range c.v {
			if v != 0 {
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
	for ci, c := m.dir.Next(0); c != nil; ci, c = m.dir.Next(ci + 1) {
		if c.live != 0 {
			clear(c.v[:])
			c.live = 0
		}
	}
	m.live = 0
}
