package profile

import (
	"math/bits"

	"vulcan/internal/pagetable"
	"vulcan/internal/radix"
)

// This file implements the dense page stores that back every
// profiler's hot path. The previous implementation kept per-page state
// in Go maps (map[VPage]heatStat and siblings); map access cost and
// per-epoch randomized walks with re-insertion dominated the figure
// benchmarks' cycle and allocation profiles. The stores here are paged
// arrays indexed directly by virtual page number:
//
//   - pages are grouped into chunks of 4096 (chunkPages); each chunk
//     holds one heatCell (heat, reads, writes) per page, so a sweep
//     reads one cell per live page, and a live mask with one bit per
//     page;
//   - chunks hang off a two-level directory (512 chunk pointers per
//     block), so the full 2^36-page virtual space is addressable without
//     reserving memory for unused regions;
//   - steady-state operation allocates nothing: chunks are allocated
//     once when a page region is first touched and then reused forever;
//   - epoch sweeps (decay, evict-below compaction, snapshot collection)
//     visit the set bits of the live mask's words inside the span
//     [lo, hi) that holds the chunk's live cells, so they cost the pages
//     a tenant tracks, not the cells between them;
//   - a chunk allocates only its first 512 cells (chunkHeadPages) until
//     a page beyond them is recorded: a tenant's pages are numbered from
//     0, so a tenant under 512 pages never pays for the other 3584.
//
// Liveness is encoded in the heat field itself: every record weight is
// positive and decay eviction zeroes the whole cell, so heat != 0 is
// exactly "this page is tracked", and the live mask bit mirrors it.
// Restore validates that invariant on input.
const (
	chunkShift = 12
	chunkPages = 1 << chunkShift // pages per chunk
	chunkMask  = chunkPages - 1
	// chunkHeadPages is the cell count a chunk starts with when its first
	// recorded page falls among them.
	chunkHeadPages = 512
	dirShift       = 9
	dirSize        = 1 << dirShift // chunks per directory block
	dirMask        = dirSize - 1
)

// chunkBase returns the first VPage covered by chunk (hi, ci).
func chunkBase(hi, ci int) pagetable.VPage {
	return pagetable.VPage(hi)<<(chunkShift+dirShift) | pagetable.VPage(ci)<<chunkShift
}

// heatCell is one page's profiled state.
type heatCell struct{ heat, reads, writes float64 }

// heatChunk holds one 4096-page region's profiled state: one cell per
// page, so the decay sweep reads a live page's three fields together,
// and a live mask, so it never tests a dead cell. cells holds
// chunkHeadPages or chunkPages entries (see grow); a page past them is
// untracked.
type heatChunk struct {
	cells []heatCell
	live  int
	// mask has bit i set exactly when cells[i].heat != 0. It is part of
	// the chunk struct, so growing the cells stays one allocation.
	mask bitmapChunk
	// lo and hi bound the live cells: every i with heat != 0 lies in
	// [lo, hi), and cells outside it are all-zero, so sweeps walk only
	// the mask words over the span. markLive widens it, endEpoch narrows
	// it to the survivors; it is empty (lo == hi) when live is 0.
	lo, hi int
	// maxHeat upper-bounds every live cell's heat (exact after an epoch
	// sweep, conservative between sweeps). When one more decay would
	// push even the maximum below the eviction floor, the whole chunk is
	// wiped with a clear instead of a per-cell sweep — multiplication by
	// a positive decay is monotone, so every cell is guaranteed to evict.
	maxHeat float64
}

// heatStore is the shared heat bookkeeping used by every profiler.
type heatStore struct {
	l1    []*[dirSize]*heatChunk
	decay float64
	// trackedPages counts live entries across all chunks.
	trackedPages int
	// snapScratch backs pages() and snapshot(); the returned slice is
	// valid only until the next call of either.
	snapScratch []PageHeat          //vulcan:nosnap scratch, rebuilt by endEpoch, pages() or snapshot()
	sortBuf     radix.Buf[PageHeat] //vulcan:nosnap snapshot() sort buffers, dead between calls
	// snapValid marks snapScratch as holding every tracked page's current
	// stats in ascending page order (collected for free during endEpoch's
	// decay sweep). Any mutation clears it, forcing pages() back to a
	// full sweep. snapWanted records that the collection has been
	// consumed at least once, so stores that are only ever queried
	// pointwise skip the collection work entirely.
	snapValid  bool //vulcan:nosnap cache flag over scratch state
	snapWanted bool //vulcan:nosnap set on first pages() call
}

func newHeatStore(decay float64) *heatStore {
	if decay <= 0 || decay >= 1 {
		panic("profile: decay must be in (0,1)")
	}
	return &heatStore{decay: decay}
}

// chunkAt returns the chunk covering vp, or nil when the region was
// never touched.
//
//vulcan:hotpath
func (h *heatStore) chunkAt(vp pagetable.VPage) *heatChunk {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(h.l1)) {
		return nil
	}
	blk := h.l1[hi]
	if blk == nil {
		return nil
	}
	return blk[uint64(vp)>>chunkShift&dirMask]
}

// ensureChunk returns the chunk covering vp with vp's cell allocated,
// allocating the directory path on first touch of the region.
func (h *heatStore) ensureChunk(vp pagetable.VPage) *heatChunk {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(h.l1)) {
		grown := make([]*[dirSize]*heatChunk, hi+1) //vulcan:allowalloc directory growth, once per 2M-page region
		copy(grown, h.l1)
		h.l1 = grown
	}
	blk := h.l1[hi]
	if blk == nil {
		blk = new([dirSize]*heatChunk) //vulcan:allowalloc directory block, once per 2M-page region
		h.l1[hi] = blk
	}
	ci := uint64(vp) >> chunkShift & dirMask
	c := blk[ci]
	if c == nil {
		c = new(heatChunk) //vulcan:allowalloc chunk allocation, once per 4096-page region
		blk[ci] = c
	}
	if i := int(vp) & chunkMask; i >= len(c.cells) {
		c.grow(i)
	}
	return c
}

// grow allocates the chunk's cells up to cell i: the first
// chunkHeadPages when i is among them, else all chunkPages. Live cells
// keep their values. A chunk grows at most twice.
func (c *heatChunk) grow(i int) {
	n := chunkPages
	if i < chunkHeadPages {
		n = chunkHeadPages
	}
	cells := make([]heatCell, n) //vulcan:allowalloc chunk cells, at most twice per 4096-page region
	copy(cells, c.cells)
	c.cells = cells
}

// words returns the range of mask words that covers the live span.
//
//vulcan:hotpath
func (c *heatChunk) words() (lo, hi int) { return c.lo >> 6, (c.hi + 63) >> 6 }

// markLive extends the live span to cover cell i, sets its live mask
// bit and counts it; the cell is about to turn live.
//
//vulcan:hotpath
func (c *heatChunk) markLive(i int) {
	switch {
	case c.live == 0:
		c.lo, c.hi = i, i+1
	case i < c.lo:
		c.lo = i
	case i >= c.hi:
		c.hi = i + 1
	}
	c.mask[i>>6] |= 1 << (i & 63)
	c.live++
}

// narrow shrinks the live span to the first and last set bits of the
// live mask, after a sweep evicted some cells.
func (c *heatChunk) narrow() {
	if c.live == 0 {
		c.lo, c.hi = 0, 0
		return
	}
	w := c.lo >> 6
	for c.mask[w] == 0 {
		w++
	}
	c.lo = w<<6 | bits.TrailingZeros64(c.mask[w])
	w = (c.hi - 1) >> 6
	for c.mask[w] == 0 {
		w--
	}
	c.hi = w<<6 + 64 - bits.LeadingZeros64(c.mask[w])
}

// record credits one observation. Weights are always positive, so a
// zero heat cell is exactly an untracked page.
//
//vulcan:hotpath
func (h *heatStore) record(vp pagetable.VPage, write bool, weight float64) {
	h.snapValid = false
	c := h.ensureChunk(vp)
	i := int(vp) & chunkMask
	cell := &c.cells[i]
	if cell.heat == 0 {
		c.markLive(i)
		h.trackedPages++
	}
	v := cell.heat + weight
	cell.heat = v
	if v > c.maxHeat {
		c.maxHeat = v
	}
	if write {
		cell.writes += weight
	} else {
		cell.reads += weight
	}
}

// endEpoch ages every tracked page and evicts entries whose heat decayed
// to noise — one pass over the set bits of each live chunk's mask, in
// ascending page order, instead of a map walk. When this store's
// collection is consumed (snapWanted), the sweep also collects the
// surviving entries into snapScratch, so the following pages() call
// skips its own full sweep.
//
//vulcan:hotpath
func (h *heatStore) endEpoch() {
	collect := h.snapWanted
	var out []PageHeat
	if collect {
		if cap(h.snapScratch) < h.trackedPages {
			h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
		}
		out = h.snapScratch[:0]
	}
	for hi, blk := range h.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil || c.live == 0 {
				continue
			}
			if c.maxHeat*h.decay < evictBelow {
				// Every live cell is at or below maxHeat, so one more decay
				// evicts them all: wipe the chunk wholesale.
				wlo, whi := c.words()
				clear(c.cells[c.lo:c.hi])
				clear(c.mask[wlo:whi])
				h.trackedPages -= c.live
				c.live = 0
				c.maxHeat = 0
				c.lo, c.hi = 0, 0
				continue
			}
			base := chunkBase(hi, ci)
			newMax := 0.0
			wlo, whi := c.words()
			for w := wlo; w < whi; w++ {
				word := c.mask[w]
				for rest := word; rest != 0; rest &= rest - 1 {
					j := w<<6 | bits.TrailingZeros64(rest)
					cell := &c.cells[j]
					v := cell.heat * h.decay
					if v < evictBelow {
						*cell = heatCell{}
						word &^= 1 << (j & 63)
						c.live--
						h.trackedPages--
						continue
					}
					cell.heat = v
					if v > newMax {
						newMax = v
					}
					r := cell.reads * h.decay
					wr := cell.writes * h.decay
					cell.reads = r
					cell.writes = wr
					if collect {
						// With wr == 0 the fraction is +0 whatever r is;
						// otherwise r + wr >= wr > 0, so the division is
						// defined. Reads-only pages skip the divide.
						wf := 0.0
						if wr != 0 {
							wf = wr / (r + wr)
						}
						out = append(out, PageHeat{VP: base | pagetable.VPage(j), Heat: v, WriteFrac: wf}) //vulcan:allowalloc appends into grow-once snapScratch, amortized across epochs
					}
				}
				c.mask[w] = word
			}
			c.maxHeat = newMax
			c.narrow()
		}
	}
	if collect {
		h.snapScratch = out
	}
	h.snapValid = collect
}

//vulcan:hotpath
func (h *heatStore) heat(vp pagetable.VPage) float64 {
	c := h.chunkAt(vp)
	i := int(vp) & chunkMask
	if c == nil || i >= len(c.cells) {
		return 0
	}
	return c.cells[i].heat
}

//vulcan:hotpath
func (h *heatStore) writeFraction(vp pagetable.VPage) float64 {
	c := h.chunkAt(vp)
	i := int(vp) & chunkMask
	if c == nil || i >= len(c.cells) {
		return 0
	}
	cell := &c.cells[i]
	total := cell.reads + cell.writes
	if total == 0 {
		return 0
	}
	return cell.writes / total
}

// snapshot returns all tracked pages hottest-first (ties broken by
// ascending page number). The slice is scratch owned by the store, with
// the same lifetime as pages().
func (h *heatStore) snapshot() []PageHeat {
	ph := h.pages()
	major, minor := h.sortBuf.Keys(len(ph))
	for i, p := range ph {
		major[i] = radix.FloatKeyDesc(p.Heat)
		minor[i] = uint64(p.VP)
	}
	// The sort permutes the collection, and its result may live in the
	// buffer's spare: keep that as the scratch (so the spare stays the
	// other array) and make the next pages() collect afresh.
	h.snapScratch = h.sortBuf.Sort(ph, major, minor)
	h.snapValid = false
	return h.snapScratch
}

// pages returns all tracked pages in ascending page order: the cached
// collection when valid, else a fresh sweep. The slice is scratch owned
// by the store: it is valid only until the store is next mutated or
// queried and must not be retained or modified by the caller.
func (h *heatStore) pages() []PageHeat {
	h.snapWanted = true
	if h.snapValid {
		return h.snapScratch
	}
	if cap(h.snapScratch) < h.trackedPages {
		// Jump straight to a power-of-two above the live-page count: one
		// high-water allocation instead of O(log n) append regrowths.
		h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
	}
	out := h.snapScratch[:0]
	h.forEachLive(func(vp pagetable.VPage, heat, reads, writes float64) {
		total := reads + writes
		wf := 0.0
		if total > 0 {
			wf = writes / total
		}
		out = append(out, PageHeat{VP: vp, Heat: heat, WriteFrac: wf})
	})
	h.snapScratch = out
	h.snapValid = true
	return out
}

func (h *heatStore) tracked() int { return h.trackedPages }

// setRaw installs restored per-page stats verbatim. heat must be
// nonzero (the caller validates); the cell must currently be empty.
func (h *heatStore) setRaw(vp pagetable.VPage, heat, reads, writes float64) bool {
	h.snapValid = false
	c := h.ensureChunk(vp)
	i := int(vp) & chunkMask
	cell := &c.cells[i]
	if cell.heat != 0 {
		return false // duplicate entry
	}
	c.markLive(i)
	*cell = heatCell{heat, reads, writes}
	if heat > c.maxHeat {
		c.maxHeat = heat
	}
	h.trackedPages++
	return true
}

// bitmapChunk holds one bit per page of a 4096-page chunk: a heat
// chunk's live mask, or one chunk of a pageBitmap.
type bitmapChunk [chunkPages / 64]uint64

// pageBitmap is a paged bitmap over virtual page numbers (HintFault's
// poison window). Same two-level directory shape as heatStore.
type pageBitmap struct {
	l1    []*[dirSize]*bitmapChunk
	count int
}

// chunkFor returns the chunk covering vp, allocating the directory
// path on first touch of the region.
func (b *pageBitmap) chunkFor(vp pagetable.VPage) *bitmapChunk {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(b.l1)) {
		grown := make([]*[dirSize]*bitmapChunk, hi+1) //vulcan:allowalloc directory growth, once per 2M-page region
		copy(grown, b.l1)
		b.l1 = grown
	}
	blk := b.l1[hi]
	if blk == nil {
		blk = new([dirSize]*bitmapChunk) //vulcan:allowalloc directory block, once per 2M-page region
		b.l1[hi] = blk
	}
	ci := uint64(vp) >> chunkShift & dirMask
	c := blk[ci]
	if c == nil {
		c = new(bitmapChunk) //vulcan:allowalloc chunk allocation, once per 4096-page region
		blk[ci] = c
	}
	return c
}

// orWord marks at most n of the pages whose bits are set in word, the
// 64 pages from base (a multiple of 64): the lowest ones not marked
// yet. It returns the word of the pages it newly marked.
//
//vulcan:hotpath
func (b *pageBitmap) orWord(base pagetable.VPage, word uint64, n int) uint64 {
	c := b.chunkFor(base)
	p := &c[int(base)&chunkMask>>6]
	word &^= *p
	for k := bits.OnesCount64(word) - n; k > 0; k-- {
		word &^= 1 << (63 - bits.LeadingZeros64(word))
	}
	*p |= word
	b.count += bits.OnesCount64(word)
	return word
}

// clearBit unmarks vp; reports whether it was set.
//
//vulcan:hotpath
func (b *pageBitmap) clearBit(vp pagetable.VPage) bool {
	hi := uint64(vp) >> (chunkShift + dirShift)
	if hi >= uint64(len(b.l1)) {
		return false
	}
	blk := b.l1[hi]
	if blk == nil {
		return false
	}
	c := blk[uint64(vp)>>chunkShift&dirMask]
	if c == nil {
		return false
	}
	i := int(vp) & chunkMask
	mask := uint64(1) << (uint(i) & 63)
	if c[i>>6]&mask == 0 {
		return false
	}
	c[i>>6] &^= mask
	b.count--
	return true
}

// clearAll unmarks every page, keeping allocated chunks for reuse.
//
//vulcan:hotpath
func (b *pageBitmap) clearAll() {
	for _, blk := range b.l1 {
		if blk == nil {
			continue
		}
		for _, c := range blk {
			if c == nil {
				continue
			}
			clear(c[:])
		}
	}
	b.count = 0
}

// forEach calls fn for every set page in ascending order.
func (b *pageBitmap) forEach(fn func(vp pagetable.VPage)) {
	for hi, blk := range b.l1 {
		if blk == nil {
			continue
		}
		for ci, c := range blk {
			if c == nil {
				continue
			}
			base := chunkBase(hi, ci)
			for w, word := range c {
				for word != 0 {
					i := w<<6 | bits.TrailingZeros64(word)
					fn(base | pagetable.VPage(i))
					word &= word - 1
				}
			}
		}
	}
}
