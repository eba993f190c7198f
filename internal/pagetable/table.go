package pagetable

import (
	"fmt"
	"math/bits"

	"vulcan/internal/mem"
)

// Leaf is a last-level page table: 512 PTEs covering a 2MiB virtual
// region. Leaves are the unit shared between threads in Vulcan's
// replicated design, because they "constitute the majority of the page
// table structure" (paper §3.4).
//
// Three masks mirror one PTE predicate each per slot: present marks a
// present entry, fast a present entry whose frame is in the fast tier,
// ad a present entry with the accessed or dirty bit set. SetPTE is the
// only writer of ptes and keeps all three exact, so the walks over
// mapped pages, the policy's fast-page walks and the profiler's A/D
// sweep visit only the slots they need instead of every PTE slot. The
// masks are derived state: a checkpoint carries the PTEs, and restore
// rebuilds the masks through Map.
//
// The leaf also holds the two facts about it as a whole: linked, the
// threads whose private trees link it — the shootdown scope of its
// shared pages — and huge, whether its 512 pages are mapped as one
// 2MiB transparent huge page (§3.5). A huge leaf always has every slot
// present: migration splits it before it unmaps any of its pages.
type Leaf struct {
	ptes    [EntriesPerTable]PTE
	present leafMask
	fast    leafMask
	ad      leafMask
	linked  threadSet
	huge    bool
}

// leafMask holds one bit per leaf slot.
type leafMask [EntriesPerTable / 64]uint64

// PTE returns the entry at slot i.
func (l *Leaf) PTE(i int) PTE { return l.ptes[i] }

// full reports whether every slot of the leaf is present.
func (l *Leaf) full() bool {
	for _, w := range l.present {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// SetPTE stores an entry at slot i, maintaining the present, fast and
// A/D masks.
func (l *Leaf) SetPTE(i int, p PTE) {
	l.ptes[i] = p
	w, bit := i>>6, uint64(1)<<(i&63)
	l.present[w] &^= bit
	l.fast[w] &^= bit
	l.ad[w] &^= bit
	if p.Present() {
		l.present[w] |= bit
		if p.fastTier() {
			l.fast[w] |= bit
		}
		if p.accessedOrDirty() {
			l.ad[w] |= bit
		}
	}
}

// Upper-level tables. Distinct types per level keep walks branch-free and
// make the replication boundary (upper levels private, leaves shared)
// explicit in the type system. Each records top, one past its highest
// allocated slot, so a walk stops there instead of scanning the empty
// slots above it; children are never freed, so top only grows.
type tableL2 struct {
	leaves [EntriesPerTable]*Leaf
	top    int
}
type tableL3 struct {
	l2s [EntriesPerTable]*tableL2
	top int
}
type tableL4 struct {
	l3s [EntriesPerTable]*tableL3
	top int
}

// raise lifts a table's top above slot i, which just got a child.
func raise(top *int, i int) { *top = max(*top, i+1) }

// table is a process-wide 4-level page table — the vanilla structure that
// every thread of a process shares in conventional kernels (Figure 6,
// left). Replicated embeds one as its process-wide view.
type table struct {
	root *tableL4

	mapped     int // present PTEs
	fastMapped int // present PTEs whose frame is in the fast tier
	tables     int // allocated tables including root (page-table memory)
	leaves     int // allocated leaves
	huge       int // leaves mapped as huge pages
}

// newTable returns an empty process-wide page table.
func newTable() *table {
	return &table{root: &tableL4{}, tables: 1}
}

// Mapped returns the number of present PTEs.
func (t *table) Mapped() int { return t.mapped }

// FastMapped returns the number of present PTEs whose frame lives in the
// fast tier. The count is maintained on every mutation, so per-app tier
// censuses are O(1) reads instead of full-table walks.
func (t *table) FastMapped() int { return t.fastMapped }

// TableCount returns the number of allocated page-table pages (all
// levels), the metric behind the replication-overhead discussion in §3.6.
func (t *table) TableCount() int { return t.tables }

// walk descends to the leaf covering vp, allocating intermediate tables
// and the leaf as needed. Returns the leaf and the final-level index.
func (t *table) walk(vp VPage) (*Leaf, int) {
	if vp > MaxVPage {
		panic(fmt.Sprintf("pagetable: vpage %#x out of range", uint64(vp)))
	}
	i4, i3, i2, i1 := splitVPage(vp)
	l3 := t.root.l3s[i4]
	if l3 == nil {
		l3 = &tableL3{}
		t.root.l3s[i4] = l3
		raise(&t.root.top, i4)
		t.tables++
	}
	l2 := l3.l2s[i3]
	if l2 == nil {
		l2 = &tableL2{}
		l3.l2s[i3] = l2
		raise(&l3.top, i3)
		t.tables++
	}
	leaf := l2.leaves[i2]
	if leaf == nil {
		leaf = &Leaf{}
		l2.leaves[i2] = leaf
		raise(&l2.top, i2)
		t.tables++
		t.leaves++
	}
	return leaf, i1
}

// leafAt returns the leaf covering vp and the final-level index, or a
// nil leaf when the path does not exist. It never allocates.
func (t *table) leafAt(vp VPage) (*Leaf, int) {
	if vp > MaxVPage {
		panic(fmt.Sprintf("pagetable: vpage %#x out of range", uint64(vp)))
	}
	i4, i3, i2, i1 := splitVPage(vp)
	l3 := t.root.l3s[i4]
	if l3 == nil {
		return nil, 0
	}
	l2 := l3.l2s[i3]
	if l2 == nil {
		return nil, 0
	}
	return l2.leaves[i2], i1
}

// Lookup returns the PTE for vp; ok is false when nothing is mapped.
func (t *table) Lookup(vp VPage) (PTE, bool) {
	leaf, i := t.leafAt(vp)
	if leaf == nil {
		return 0, false
	}
	p := leaf.PTE(i)
	return p, p.Present()
}

// mapLeaf installs a PTE for vp and returns the leaf it wrote, so the
// caller links the leaf without walking to it again. Mapping over a
// present entry returns an error: replacing a live translation without
// an unmap (and shootdown) is exactly the bug class tiering code must
// not hide.
func (t *table) mapLeaf(vp VPage, p PTE) (*Leaf, error) {
	c := mapCursor{t: t}
	return c.mapLeaf(vp, p)
}

// Unmap clears the PTE for vp in its shared leaf, visible to every
// thread, returning the prior entry. ok is false when nothing was
// mapped. Links to the leaf stay in place: like real page tables, empty
// leaves are not eagerly torn down.
func (t *table) Unmap(vp VPage) (PTE, bool) {
	leaf, i := t.leafAt(vp)
	if leaf == nil {
		return 0, false
	}
	p := leaf.PTE(i)
	if !p.Present() {
		return 0, false
	}
	leaf.SetPTE(i, 0)
	t.mapped--
	if p.Frame().Tier == mem.TierFast {
		t.fastMapped--
	}
	return p, true
}

// leafWalk visits a table's allocated leaves in ascending VPage order,
// starting at the leaf position (i4, i3, i2) it is built with.
type leafWalk struct {
	t          *table
	i4, i3, i2 int
}

// next returns the next leaf and its first VPage; ok is false once the
// walk is past the last leaf. The position lives in locals while it
// scans, so the empty slots it skips cost no stores, and each level's
// scan ends at its table's top.
//
//vulcan:hotpath
func (w *leafWalk) next() (base VPage, leaf *Leaf, ok bool) {
	root := w.t.root
	i4, i3, i2 := w.i4, w.i3, w.i2
	for ; i4 < root.top; i4, i3 = i4+1, 0 {
		l3 := root.l3s[i4]
		if l3 == nil {
			continue
		}
		for ; i3 < l3.top; i3, i2 = i3+1, 0 {
			l2 := l3.l2s[i3]
			if l2 == nil {
				continue
			}
			for ; i2 < l2.top; i2++ {
				if leaf := l2.leaves[i2]; leaf != nil {
					w.i4, w.i3, w.i2 = i4, i3, i2+1
					return VPage(i4)<<27 | VPage(i3)<<18 | VPage(i2)<<9, leaf, true
				}
			}
		}
	}
	w.i4 = EntriesPerTable
	return 0, nil, false
}

// Range calls fn for every present PTE in ascending VPage order,
// reading the leaves' present masks. fn may return false to stop early.
// Range is the substrate for page-table scanning profilers.
func (t *table) Range(fn func(vp VPage, p PTE) bool) {
	w := leafWalk{t: t}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		for i, word := range leaf.present {
			for ; word != 0; word &= word - 1 {
				i1 := i<<6 | bits.TrailingZeros64(word)
				if !fn(base|VPage(i1), leaf.ptes[i1]) {
					return
				}
			}
		}
	}
}

// PresentFrom calls fn with every nonzero word of the leaves' present
// masks that covers a page at or above start, in ascending order: bit i
// of word is page base+i, and the bits of pages below start are
// cleared. It stops when fn returns false. Cursor-based scanners use it
// to resume a rotating walk 64 pages at a time without re-visiting the
// prefix below the cursor.
//
//vulcan:hotpath
func (t *table) PresentFrom(start VPage, fn func(base VPage, word uint64) bool) {
	if start > MaxVPage {
		return
	}
	s4, s3, s2, _ := splitVPage(start)
	w := leafWalk{t: t, i4: s4, i3: s3, i2: s2}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		for i, word := range leaf.present {
			wb := base | VPage(i<<6)
			if wb+64 <= start {
				continue
			}
			if wb < start {
				word &^= 1<<(start-wb) - 1
			}
			if word != 0 && !fn(wb, word) {
				return
			}
		}
	}
}

// Words calls fn with every nonzero word of the leaves' present masks
// and the matching word of their fast masks, in ascending order: bit i
// of present is page base+i, and bit i of fast is set when that page's
// frame is in the fast tier. The policy rankers read the tiers of 64
// pages at a time this way, so they cost one call per word, not per
// page.
//
//vulcan:hotpath
func (t *table) Words(fn func(base VPage, present, fast uint64)) {
	w := leafWalk{t: t}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		for i, word := range &leaf.present {
			if word != 0 {
				fn(base|VPage(i<<6), word, leaf.fast[i])
			}
		}
	}
}

// SweepAccessed calls fn for every present PTE with the accessed or
// dirty bit set, in ascending VPage order, and stores the returned
// entry back in place. It is the epoch-boundary harvest of A/D bits:
// the leaves' A/D masks skip the entries no access touched since the
// last sweep. fn may only clear the accessed and dirty bits; any other
// change panics, because the sweep maintains no mapped or tier counts.
//
//vulcan:hotpath
func (t *table) SweepAccessed(fn func(vp VPage, p PTE) PTE) {
	w := leafWalk{t: t}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		for i, word := range leaf.ad {
			for ; word != 0; word &= word - 1 {
				i1 := i<<6 | bits.TrailingZeros64(word)
				p := leaf.ptes[i1]
				np := fn(base|VPage(i1), p)
				if np == p {
					continue
				}
				if uint64(np)&^uint64(p) != 0 || uint64(np^p)&^pteMaskAD != 0 {
					panic("pagetable: SweepAccessed callback changed more than A/D bits")
				}
				leaf.SetPTE(i1, np)
			}
		}
	}
}

// mapCursor maps PTEs through the last leaf it reached, so mapping a
// run of pages in ascending order walks the tree once per leaf instead
// of once per page. It is short-lived: it stays valid while the table
// is mutated (leaves are never freed), but not across a Restore, which
// rebuilds the tree.
type mapCursor struct {
	t    *table
	li   uint64
	leaf *Leaf
}

// at reports whether the cursor rests on leaf li.
func (c *mapCursor) at(li uint64) bool { return c.leaf != nil && c.li == li }

// mapLeaf installs p at vp, like table.mapLeaf.
func (c *mapCursor) mapLeaf(vp VPage, p PTE) (*Leaf, error) {
	if !p.Present() {
		return nil, fmt.Errorf("pagetable: mapping non-present PTE at %#x", uint64(vp))
	}
	if li := LeafIndex(vp); !c.at(li) {
		c.leaf, _ = c.t.walk(vp)
		c.li = li
	}
	i := int(vp & (EntriesPerTable - 1))
	if c.leaf.PTE(i).Present() {
		return nil, fmt.Errorf("pagetable: vpage %#x already mapped", uint64(vp))
	}
	c.leaf.SetPTE(i, p)
	c.t.mapped++
	if p.Frame().Tier == mem.TierFast {
		c.t.fastMapped++
	}
	return c.leaf, nil
}

// checkMasks verifies every leaf's present, fast and A/D masks against
// its PTEs, and the leaf state the masks do not cover: every leaf has a
// linking thread, a huge leaf has every slot present, and the leaf and
// huge-leaf counts match the walk. It returns the first disagreement.
func (t *table) checkMasks() error {
	leaves, huge := 0, 0
	w := leafWalk{t: t}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		var present, fast, ad leafMask
		for i, p := range leaf.ptes {
			bit := uint64(1) << (i & 63)
			if p.Present() {
				present[i>>6] |= bit
			}
			if p.Present() && p.fastTier() {
				fast[i>>6] |= bit
			}
			if p.Present() && p.accessedOrDirty() {
				ad[i>>6] |= bit
			}
		}
		if present != leaf.present {
			return fmt.Errorf("pagetable: leaf at %#x: present mask %x, PTEs say %x", uint64(base), leaf.present, present)
		}
		if fast != leaf.fast {
			return fmt.Errorf("pagetable: leaf at %#x: fast mask %x, PTEs say %x", uint64(base), leaf.fast, fast)
		}
		if ad != leaf.ad {
			return fmt.Errorf("pagetable: leaf at %#x: A/D mask %x, PTEs say %x", uint64(base), leaf.ad, ad)
		}
		if leaf.linked == (threadSet{}) {
			return fmt.Errorf("pagetable: leaf at %#x linked by no thread", uint64(base))
		}
		if leaf.huge && !leaf.full() {
			return fmt.Errorf("pagetable: huge leaf at %#x not fully present", uint64(base))
		}
		leaves++
		if leaf.huge {
			huge++
		}
	}
	if leaves != t.leaves || huge != t.huge {
		return fmt.Errorf("pagetable: %d leaves (%d huge) counted as %d (%d huge)", leaves, huge, t.leaves, t.huge)
	}
	return nil
}
