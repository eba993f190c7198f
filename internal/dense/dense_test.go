package dense

import (
	"reflect"
	"testing"
)

// TestMapMatchesReference drives a Map and a builtin map through the
// same deterministic op stream and checks full agreement.
func TestMapMatchesReference(t *testing.T) {
	var m Map
	ref := map[uint64]uint64{}

	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	// Keys span multiple chunks and directory blocks, including a huge
	// key that forces directory growth.
	keyFor := func() uint64 {
		switch next() % 4 {
		case 0:
			return next() % 256 // one chunk
		case 1:
			return next() % (1 << 14) // several chunks
		case 2:
			return next() % (1 << 22) // several directory blocks
		default:
			return 1<<30 | next()%1024 // sparse far region
		}
	}

	for op := 0; op < 200_000; op++ {
		k := keyFor()
		switch next() % 3 {
		case 0:
			v := next() | 1 // nonzero
			m.Set(k, v)
			ref[k] = v
		case 1:
			got := m.Delete(k)
			want := ref[k]
			if got != want {
				t.Fatalf("op %d: Delete(%d) = %d, want %d", op, k, got, want)
			}
			delete(ref, k)
		default:
			got := m.Get(k)
			want := ref[k]
			if got != want {
				t.Fatalf("op %d: Get(%d) = %d, want %d", op, k, got, want)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len() = %d, want %d", op, m.Len(), len(ref))
		}
	}

	// ForEach must visit exactly the reference contents in ascending order.
	prev := int64(-1)
	seen := 0
	m.ForEach(func(k, v uint64) {
		if int64(k) <= prev {
			t.Fatalf("ForEach out of order: %d after %d", k, prev)
		}
		prev = int64(k)
		if ref[k] != v {
			t.Fatalf("ForEach: key %d = %d, want %d", k, v, ref[k])
		}
		seen++
	})
	if seen != len(ref) {
		t.Fatalf("ForEach visited %d keys, want %d", seen, len(ref))
	}

	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len after Clear = %d", m.Len())
	}
	m.ForEach(func(k, v uint64) { t.Fatalf("ForEach after Clear visited %d", k) })
	if got := m.Get(42); got != 0 {
		t.Fatalf("Get after Clear = %d", got)
	}

	// Chunks survive Clear: setting again must not allocate directories.
	m.Set(7, 9)
	if m.Get(7) != 9 || m.Len() != 1 {
		t.Fatal("Set after Clear broken")
	}
}

func TestSetZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(k, 0) did not panic")
		}
	}()
	var m Map
	m.Set(1, 0)
}

// TestSteadyStateNoAllocs pins the zero-allocation contract once a
// region's chunk exists.
func TestSteadyStateNoAllocs(t *testing.T) {
	var m Map
	for k := uint64(0); k < 8192; k++ {
		m.Set(k, k+1)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for k := uint64(0); k < 8192; k += 7 {
			m.Set(k, k^0xff|1)
			_ = m.Get(k + 1)
			m.Delete(k + 2)
		}
		m.Clear()
		for k := uint64(0); k < 8192; k += 16 {
			m.Set(k, k+3)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady state allocates %.1f times per run, want 0", allocs)
	}
}

// TestChunkAndDirectoryBoundaries pins Set, Delete, ForEach order and
// Clear at the edges of 512-key chunks and 2^18-key directory blocks,
// where a key's chunk or block index rolls over, and the Dir under them:
// the Next walk, Chunk misses and their allocation counts.
func TestChunkAndDirectoryBoundaries(t *testing.T) {
	const block = chunkSize * dirSize
	if chunkSize != 512 || block != 1<<18 {
		t.Fatalf("chunk %d keys, block %d keys; this test's edges assume 512 and 2^18", chunkSize, block)
	}
	keys := []uint64{
		0, chunkSize - 1, chunkSize, 2*chunkSize - 1, 2 * chunkSize,
		block - chunkSize - 1, block - chunkSize, block - 1, block, block + 1,
		2*block - 1, 2 * block, 5*block + chunkSize - 1, 5*block + chunkSize,
	}
	var m Map
	// Insert in descending order so ascending iteration cannot come
	// from insertion order.
	for i := len(keys) - 1; i >= 0; i-- {
		m.Set(keys[i], keys[i]+1)
	}
	collect := func() []uint64 {
		var got []uint64
		m.ForEach(func(k, v uint64) {
			if v != k+1 {
				t.Fatalf("key %d holds %d, want %d", k, v, k+1)
			}
			got = append(got, k)
		})
		return got
	}
	if got := collect(); !reflect.DeepEqual(got, keys) {
		t.Fatalf("ForEach order %v, want %v", got, keys)
	}
	// Delete each chunk's edge key; its neighbour across the boundary
	// must survive.
	kept := []uint64{}
	for i, k := range keys {
		if i%2 == 0 {
			if got := m.Delete(k); got != k+1 {
				t.Fatalf("Delete(%d) = %d, want %d", k, got, k+1)
			}
			if got := m.Get(k); got != 0 {
				t.Fatalf("Get(%d) after Delete = %d", k, got)
			}
			continue
		}
		kept = append(kept, k)
	}
	if got := collect(); !reflect.DeepEqual(got, kept) {
		t.Fatalf("ForEach after deletes %v, want %v", got, kept)
	}
	if m.Len() != len(kept) {
		t.Fatalf("Len = %d, want %d", m.Len(), len(kept))
	}
	m.Clear()
	if got := collect(); len(got) != 0 || m.Len() != 0 {
		t.Fatalf("after Clear: ForEach %v, Len %d", got, m.Len())
	}
	for _, k := range keys {
		if got := m.Get(k); got != 0 {
			t.Fatalf("Get(%d) after Clear = %d", k, got)
		}
	}
	// Clear keeps every chunk: refilling the same keys allocates nothing.
	if allocs := testing.AllocsPerRun(10, func() {
		for _, k := range keys {
			m.Set(k, k+1)
		}
		m.Clear()
	}); allocs != 0 {
		t.Fatalf("refilling cleared chunks allocated %.0f times", allocs)
	}

	// The directory under the map: Next visits the allocated chunks in
	// ascending order across chunk and block edges, whether they hold
	// keys or not, and a far key grows l1 to reach its block.
	m.Set(40*block+3, 1)
	if len(m.dir.l1) != 41 {
		t.Fatalf("l1 holds %d blocks after a key in block 40, want 41", len(m.dir.l1))
	}
	chunks := []uint64{0, 1, 2, dirSize - 2, dirSize - 1, dirSize, 2*dirSize - 1, 2 * dirSize,
		5 * dirSize, 5*dirSize + 1, 40 * dirSize}
	var walked []uint64
	for ci, c := m.dir.Next(0); c != nil; ci, c = m.dir.Next(ci + 1) {
		if c != m.dir.Chunk(ci) {
			t.Fatalf("Next returned chunk %d's pointer wrong", ci)
		}
		walked = append(walked, ci)
	}
	if !reflect.DeepEqual(walked, chunks) {
		t.Fatalf("Next walk %v, want %v", walked, chunks)
	}
	for _, tc := range []struct{ from, want uint64 }{
		{3, dirSize - 2}, {dirSize + 1, 2*dirSize - 1}, {2*dirSize + 1, 5 * dirSize},
		{5*dirSize + 2, 40 * dirSize},
	} {
		if ci, c := m.dir.Next(tc.from); c == nil || ci != tc.want {
			t.Fatalf("Next(%d) = %d (nil %t), want %d", tc.from, ci, c == nil, tc.want)
		}
	}
	if _, c := m.dir.Next(40*dirSize + 1); c != nil {
		t.Fatal("Next past the last chunk found one")
	}
	// Chunk never allocates: a miss in an allocated block, in a nil block
	// and past the directory leaves l1 as it was.
	for _, ci := range []uint64{3, 10 * dirSize, 1000 * dirSize} {
		if c := m.dir.Chunk(ci); c != nil {
			t.Fatalf("Chunk(%d) found an unallocated chunk", ci)
		}
	}
	if len(m.dir.l1) != 41 {
		t.Fatalf("Chunk misses changed l1 to %d blocks", len(m.dir.l1))
	}
	if allocs := testing.AllocsPerRun(10, func() {
		n := 0
		for ci, c := m.dir.Next(0); c != nil; ci, c = m.dir.Next(ci + 1) {
			n++
		}
		if n != len(chunks) || m.dir.Chunk(1000*dirSize) != nil || m.dir.Chunk(3) != nil {
			t.Fatal("walk or miss changed")
		}
	}); allocs != 0 {
		t.Fatalf("a Next walk and Chunk misses allocated %.0f times", allocs)
	}
}
