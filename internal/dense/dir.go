package dense

const (
	dirShift = 9
	dirSize  = 1 << dirShift // chunks per directory block
	dirMask  = dirSize - 1
	// DirBlock is the number of chunks one directory block holds: chunk
	// numbers roll over to the next block every DirBlock chunks.
	DirBlock = dirSize
)

// Dir is a paged directory of chunks numbered from 0: 512-way directory
// blocks hanging off a slice, so a chunk is two dereferences away and
// a sparse chunk space reserves memory only for the blocks it touches.
// Every page-indexed store (Map here, the profiler heat store and
// poison bitmap) keeps its chunks in one; the store maps its key to a
// chunk number and a slot inside the chunk. Chunks are never freed, so
// a store that clears them reuses them. The zero value is empty.
type Dir[C any] struct {
	l1 []*[dirSize]*C
}

// Chunk returns chunk ci, or nil when it was never allocated. It never
// allocates.
//
//vulcan:hotpath
func (d *Dir[C]) Chunk(ci uint64) *C {
	hi := ci >> dirShift
	if hi >= uint64(len(d.l1)) {
		return nil
	}
	blk := d.l1[hi]
	if blk == nil {
		return nil
	}
	return blk[ci&dirMask]
}

// Ensure returns chunk ci, allocating it, and its directory block, on
// first use.
func (d *Dir[C]) Ensure(ci uint64) *C {
	hi := ci >> dirShift
	if hi >= uint64(len(d.l1)) {
		grown := make([]*[dirSize]*C, hi+1) //vulcan:allowalloc directory growth, once per directory block
		copy(grown, d.l1)
		d.l1 = grown
	}
	blk := d.l1[hi]
	if blk == nil {
		blk = new([dirSize]*C) //vulcan:allowalloc directory block, once per 512 chunks
		d.l1[hi] = blk
	}
	c := blk[ci&dirMask]
	if c == nil {
		c = new(C) //vulcan:allowalloc chunk allocation, once per chunk
		blk[ci&dirMask] = c
	}
	return c
}

// Next returns the lowest-numbered allocated chunk at or above ci and
// its number, or a nil chunk when there is none. A walk over every
// chunk in ascending order, with no closure, is
//
//	for ci, c := d.Next(0); c != nil; ci, c = d.Next(ci + 1) { ... }
//
//vulcan:hotpath
func (d *Dir[C]) Next(ci uint64) (uint64, *C) {
	for hi := ci >> dirShift; hi < uint64(len(d.l1)); hi, ci = hi+1, (hi+1)<<dirShift {
		blk := d.l1[hi]
		if blk == nil {
			continue
		}
		for j := ci & dirMask; j < dirSize; j++ {
			if c := blk[j]; c != nil {
				return hi<<dirShift | j, c
			}
		}
	}
	return 0, nil
}
