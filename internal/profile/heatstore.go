package profile

import (
	"math/bits"

	"vulcan/internal/dense"
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
//   - chunks are kept in a dense.Dir, the paged directory shared with
//     dense.Map, so the full 2^36-page virtual space is addressable
//     without reserving memory for unused regions;
//   - steady-state operation allocates nothing: chunks are allocated
//     once when a page region is first touched and then reused forever;
//   - epoch sweeps (decay and evict-below compaction) and collections
//     visit only the set bits of each chunk's live mask, so they cost
//     the pages a tenant tracks, not the cells between them;
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
)

// chunkBase returns the first VPage covered by chunk ci.
func chunkBase(ci uint64) pagetable.VPage { return pagetable.VPage(ci << chunkShift) }

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
}

// heatStore is the shared heat bookkeeping used by every profiler. Each
// profiler embeds one, and its Heat, WriteFraction, HeatWord,
// HeatSnapshot, HeatPages and Tracked methods are the Profiler queries.
type heatStore struct {
	dir   dense.Dir[heatChunk]
	decay float64
	// trackedPages counts live entries across all chunks.
	trackedPages int
	// snapScratch backs HeatPages and HeatSnapshot; the returned slice
	// is valid only until the next call of either.
	snapScratch []PageHeat          //vulcan:nosnap scratch, rebuilt by HeatPages or HeatSnapshot
	sortBuf     radix.Buf[PageHeat] //vulcan:nosnap HeatSnapshot sort buffers, dead between calls
}

func newHeatStore(decay float64) *heatStore {
	if decay <= 0 || decay >= 1 {
		panic("profile: decay must be in (0,1)")
	}
	return &heatStore{decay: decay}
}

// liveCell returns vp's cell for a mutation, allocating its chunk and
// cells on first touch of the region. A dead cell is marked live (mask
// bit set, counted) and fresh reports it; the caller leaves the cell's
// heat nonzero.
//
//vulcan:hotpath
func (h *heatStore) liveCell(vp pagetable.VPage) (cell *heatCell, fresh bool) {
	c := h.dir.Ensure(uint64(vp) >> chunkShift)
	i := int(vp) & chunkMask
	if i >= len(c.cells) {
		c.grow(i)
	}
	cell = &c.cells[i]
	if cell.heat != 0 {
		return cell, false
	}
	c.mask[i>>6] |= 1 << (i & 63)
	c.live++
	h.trackedPages++
	return cell, true
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

// record credits one observation. Weights are always positive, so a
// zero heat cell is exactly an untracked page.
//
//vulcan:hotpath
func (h *heatStore) record(vp pagetable.VPage, write bool, weight float64) {
	cell, _ := h.liveCell(vp)
	cell.heat += weight
	if write {
		cell.writes += weight
	} else {
		cell.reads += weight
	}
}

// endEpoch ages every tracked page and evicts entries whose heat decayed
// to noise — one pass over the set bits of each live chunk's mask, in
// ascending page order, instead of a map walk.
//
//vulcan:hotpath
func (h *heatStore) endEpoch() {
	for ci, c := h.dir.Next(0); c != nil; ci, c = h.dir.Next(ci + 1) {
		if c.live == 0 {
			continue
		}
		for w, word := range &c.mask {
			if word == 0 {
				continue
			}
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
				cell.reads *= h.decay
				cell.writes *= h.decay
			}
			c.mask[w] = word
		}
	}
}

// Heat returns vp's heat estimate (0 if untracked).
//
//vulcan:hotpath
func (h *heatStore) Heat(vp pagetable.VPage) float64 {
	c := h.dir.Chunk(uint64(vp) >> chunkShift)
	i := int(vp) & chunkMask
	if c == nil || i >= len(c.cells) {
		return 0
	}
	return c.cells[i].heat
}

// WriteFraction returns the fraction of writes among vp's observed
// accesses (0 if untracked). It reads vp's cell through its heat word,
// so the two return the same bits by construction.
//
//vulcan:hotpath
func (h *heatStore) WriteFraction(vp pagetable.VPage) float64 {
	return h.HeatWord(vp &^ 63).WriteFrac(int(vp & 63))
}

// HeatWord is the profiled state of the 64 pages from a multiple of 64,
// read from one heat chunk: bit i of Live is set exactly when page
// base+i is tracked, and Heat(i) and WriteFrac(i) return what Heat and
// WriteFraction return for that page. The zero value reads as 64
// untracked pages.
type HeatWord struct {
	Live  uint64
	cells *[64]heatCell
}

// Heat returns page i's heat, bit for bit Profiler.Heat (0 when
// untracked).
func (w HeatWord) Heat(i int) float64 {
	if w.cells == nil {
		return 0
	}
	return w.cells[i&63].heat
}

// WriteFrac returns page i's write fraction (0 when untracked), the
// expression behind Profiler.WriteFraction.
func (w HeatWord) WriteFrac(i int) float64 {
	if w.cells == nil {
		return 0
	}
	return w.cells[i&63].writeFrac()
}

// writeFrac is the cell's write fraction: 0 for an untracked cell, whose
// reads and writes are both zero.
func (c *heatCell) writeFrac() float64 {
	total := c.reads + c.writes
	if total == 0 {
		return 0
	}
	return c.writes / total
}

// HeatWord returns the heat word of the 64 pages from base, a multiple
// of 64. A page with no cell (its chunk never allocated, or past the
// chunk's head cells) is untracked, as in Heat, so such a word is the
// zero HeatWord.
//
//vulcan:hotpath
func (h *heatStore) HeatWord(base pagetable.VPage) HeatWord {
	c := h.dir.Chunk(uint64(base) >> chunkShift)
	i := int(base) & chunkMask
	if c == nil || i+64 > len(c.cells) {
		return HeatWord{}
	}
	return HeatWord{Live: c.mask[i>>6], cells: (*[64]heatCell)(c.cells[i : i+64])}
}

// HeatSnapshot returns all tracked pages hottest-first (ties broken by
// ascending page number). The slice is scratch owned by the store, with
// the same lifetime as HeatPages'.
func (h *heatStore) HeatSnapshot() []PageHeat {
	ph := h.HeatPages()
	major, minor := h.sortBuf.Keys(len(ph))
	for i, p := range ph {
		major[i] = radix.FloatKeyDesc(p.Heat)
		minor[i] = uint64(p.VP)
	}
	// The sort's result may live in the buffer's spare: keep that as the
	// scratch, so the spare stays the other array.
	h.snapScratch = h.sortBuf.Sort(ph, major, minor)
	return h.snapScratch
}

// HeatPages returns all tracked pages in ascending page order, one sweep
// of the live masks. The slice is scratch owned by the store: it is
// valid only until the next HeatPages or HeatSnapshot call and must not
// be retained or modified by the caller.
func (h *heatStore) HeatPages() []PageHeat {
	if cap(h.snapScratch) < h.trackedPages {
		// Jump straight to a power-of-two above the live-page count: one
		// high-water allocation instead of O(log n) append regrowths.
		h.snapScratch = make([]PageHeat, 0, 1<<bits.Len(uint(h.trackedPages-1))) //vulcan:allowalloc grow-once scratch, amortized across epochs
	}
	out := h.snapScratch[:0]
	h.forEachLive(func(vp pagetable.VPage, c *heatCell) {
		out = append(out, PageHeat{VP: vp, Heat: c.heat, WriteFrac: c.writeFrac()})
	})
	h.snapScratch = out
	return out
}

// Tracked returns the number of pages with live heat state.
func (h *heatStore) Tracked() int { return h.trackedPages }

// setRaw installs restored per-page stats verbatim. heat must be
// nonzero (the caller validates); the cell must currently be empty.
func (h *heatStore) setRaw(vp pagetable.VPage, heat, reads, writes float64) bool {
	cell, fresh := h.liveCell(vp)
	if !fresh {
		return false // duplicate entry
	}
	*cell = heatCell{heat, reads, writes}
	return true
}

// bitmapChunk holds one bit per page of a 4096-page chunk: a heat
// chunk's live mask, or one chunk of a pageBitmap.
type bitmapChunk [chunkPages / 64]uint64

// pageBitmap is a paged bitmap over virtual page numbers (HintFault's
// poison window), its chunks in a dense.Dir like the heat store's.
type pageBitmap struct {
	dir   dense.Dir[bitmapChunk]
	count int
}

// orWord marks at most n of the pages whose bits are set in word, the
// 64 pages from base (a multiple of 64): the lowest ones not marked
// yet. It returns the word of the pages it newly marked.
//
//vulcan:hotpath
func (b *pageBitmap) orWord(base pagetable.VPage, word uint64, n int) uint64 {
	c := b.dir.Ensure(uint64(base) >> chunkShift)
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
	c := b.dir.Chunk(uint64(vp) >> chunkShift)
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
	for ci, c := b.dir.Next(0); c != nil; ci, c = b.dir.Next(ci + 1) {
		clear(c[:])
	}
	b.count = 0
}

// forEach calls fn for every set page in ascending order.
func (b *pageBitmap) forEach(fn func(vp pagetable.VPage)) {
	for ci, c := b.dir.Next(0); c != nil; ci, c = b.dir.Next(ci + 1) {
		base := chunkBase(ci)
		for w, word := range c {
			for word != 0 {
				i := w<<6 | bits.TrailingZeros64(word)
				fn(base | pagetable.VPage(i))
				word &= word - 1
			}
		}
	}
}
