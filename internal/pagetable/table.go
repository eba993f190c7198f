package pagetable

import (
	"fmt"

	"vulcan/internal/mem"
)

// Leaf is a last-level page table: 512 PTEs covering a 2MiB virtual
// region. Leaves are the unit shared between threads in Vulcan's
// replicated design, because they "constitute the majority of the page
// table structure" (paper §3.4).
type Leaf struct {
	ptes [EntriesPerTable]PTE
	live int // number of present entries
}

// PTE returns the entry at slot i.
func (l *Leaf) PTE(i int) PTE { return l.ptes[i] }

// SetPTE stores an entry at slot i, maintaining the live-entry count.
func (l *Leaf) SetPTE(i int, p PTE) {
	was, is := l.ptes[i].Present(), p.Present()
	l.ptes[i] = p
	switch {
	case !was && is:
		l.live++
	case was && !is:
		l.live--
	}
}

// Live returns the number of present entries in the leaf.
func (l *Leaf) Live() int { return l.live }

// Upper-level tables. Distinct types per level keep walks branch-free and
// make the replication boundary (upper levels private, leaves shared)
// explicit in the type system.
type tableL2 struct {
	leaves [EntriesPerTable]*Leaf
	live   int
}
type tableL3 struct {
	l2s  [EntriesPerTable]*tableL2
	live int
}
type tableL4 struct {
	l3s  [EntriesPerTable]*tableL3
	live int
}

// Table is a process-wide 4-level page table — the vanilla structure that
// every thread of a process shares in conventional kernels (Figure 6,
// left).
type Table struct {
	root *tableL4

	mapped     int // present PTEs
	fastMapped int // present PTEs whose frame is in the fast tier
	tables     int // allocated tables including root (page-table memory)
}

// New returns an empty process-wide page table.
func New() *Table {
	return &Table{root: &tableL4{}, tables: 1}
}

// Mapped returns the number of present PTEs.
func (t *Table) Mapped() int { return t.mapped }

// FastMapped returns the number of present PTEs whose frame lives in the
// fast tier. The count is maintained on every mutation, so per-app tier
// censuses are O(1) reads instead of full-table walks.
func (t *Table) FastMapped() int { return t.fastMapped }

// TableCount returns the number of allocated page-table pages (all
// levels), the metric behind the replication-overhead discussion in §3.6.
func (t *Table) TableCount() int { return t.tables }

// walk descends to the leaf covering vp, allocating intermediate tables
// when create is set. Returns the leaf and the final-level index, or nil
// when the path does not exist.
func (t *Table) walk(vp VPage, create bool) (*Leaf, int) {
	if vp > MaxVPage {
		panic(fmt.Sprintf("pagetable: vpage %#x out of range", uint64(vp)))
	}
	i4, i3, i2, i1 := splitVPage(vp)
	l3 := t.root.l3s[i4]
	if l3 == nil {
		if !create {
			return nil, 0
		}
		l3 = &tableL3{}
		t.root.l3s[i4] = l3
		t.root.live++
		t.tables++
	}
	l2 := l3.l2s[i3]
	if l2 == nil {
		if !create {
			return nil, 0
		}
		l2 = &tableL2{}
		l3.l2s[i3] = l2
		l3.live++
		t.tables++
	}
	leaf := l2.leaves[i2]
	if leaf == nil {
		if !create {
			return nil, 0
		}
		leaf = &Leaf{}
		l2.leaves[i2] = leaf
		l2.live++
		t.tables++
	}
	return leaf, i1
}

// Lookup returns the PTE for vp; ok is false when nothing is mapped.
func (t *Table) Lookup(vp VPage) (PTE, bool) {
	leaf, i := t.walk(vp, false)
	if leaf == nil {
		return 0, false
	}
	p := leaf.PTE(i)
	return p, p.Present()
}

// Map installs a PTE for vp. Mapping over a present entry returns an
// error: replacing a live translation without an unmap (and shootdown) is
// exactly the bug class tiering code must not hide.
func (t *Table) Map(vp VPage, p PTE) error {
	if !p.Present() {
		return fmt.Errorf("pagetable: mapping non-present PTE at %#x", uint64(vp))
	}
	leaf, i := t.walk(vp, true)
	if leaf.PTE(i).Present() {
		return fmt.Errorf("pagetable: vpage %#x already mapped", uint64(vp))
	}
	leaf.SetPTE(i, p)
	t.mapped++
	if p.Frame().Tier == mem.TierFast {
		t.fastMapped++
	}
	return nil
}

// Unmap clears the PTE for vp, returning the prior entry. ok is false when
// nothing was mapped.
func (t *Table) Unmap(vp VPage) (PTE, bool) {
	leaf, i := t.walk(vp, false)
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

// Update applies fn to the PTE for vp and stores the result. ok is false
// when the page is not mapped. Update is how access/dirty bits are set and
// how migration remaps entries.
func (t *Table) Update(vp VPage, fn func(PTE) PTE) (PTE, bool) {
	leaf, i := t.walk(vp, false)
	if leaf == nil {
		return 0, false
	}
	p := leaf.PTE(i)
	if !p.Present() {
		return 0, false
	}
	np := fn(p)
	leaf.SetPTE(i, np)
	wasFast := p.Frame().Tier == mem.TierFast
	isFast := np.Present() && np.Frame().Tier == mem.TierFast
	if !np.Present() {
		t.mapped--
	}
	if wasFast != isFast {
		if isFast {
			t.fastMapped++
		} else {
			t.fastMapped--
		}
	}
	return np, true
}

// Range calls fn for every present PTE in ascending VPage order. fn may
// return false to stop early. Range is the substrate for page-table
// scanning profilers.
func (t *Table) Range(fn func(vp VPage, p PTE) bool) {
	for i4, l3 := range t.root.l3s {
		if l3 == nil {
			continue
		}
		for i3, l2 := range l3.l2s {
			if l2 == nil {
				continue
			}
			for i2, leaf := range l2.leaves {
				if leaf == nil || leaf.Live() == 0 {
					continue
				}
				base := VPage(i4)<<27 | VPage(i3)<<18 | VPage(i2)<<9
				for i1 := 0; i1 < EntriesPerTable; i1++ {
					p := leaf.PTE(i1)
					if !p.Present() {
						continue
					}
					if !fn(base|VPage(i1), p) {
						return
					}
				}
			}
		}
	}
}

// RangeFrom calls fn for every present PTE with vp >= start in ascending
// VPage order, stopping when fn returns false. Cursor-based scanners use
// it to resume a rotating walk without re-visiting the prefix below the
// cursor.
//
//vulcan:hotpath
func (t *Table) RangeFrom(start VPage, fn func(vp VPage, p PTE) bool) {
	if start > MaxVPage {
		return
	}
	s4, s3, s2, s1 := splitVPage(start)
	for i4 := s4; i4 < EntriesPerTable; i4++ {
		l3 := t.root.l3s[i4]
		if l3 == nil {
			continue
		}
		j3 := 0
		if i4 == s4 {
			j3 = s3
		}
		for i3 := j3; i3 < EntriesPerTable; i3++ {
			l2 := l3.l2s[i3]
			if l2 == nil {
				continue
			}
			j2 := 0
			if i4 == s4 && i3 == s3 {
				j2 = s2
			}
			for i2 := j2; i2 < EntriesPerTable; i2++ {
				leaf := l2.leaves[i2]
				if leaf == nil || leaf.Live() == 0 {
					continue
				}
				j1 := 0
				if i4 == s4 && i3 == s3 && i2 == s2 {
					j1 = s1
				}
				base := VPage(i4)<<27 | VPage(i3)<<18 | VPage(i2)<<9
				for i1 := j1; i1 < EntriesPerTable; i1++ {
					p := leaf.PTE(i1)
					if !p.Present() {
						continue
					}
					if !fn(base|VPage(i1), p) {
						return
					}
				}
			}
		}
	}
}

// RangeMut calls fn for every present PTE in ascending VPage order and
// stores the returned entry back in place, adjusting the mapped count
// if the present bit changes. It exists for epoch-boundary scanners
// that harvest and clear accessed/dirty bits: a read-modify-write pass
// over the whole table costs one walk instead of one Range plus one
// full walk per touched page through Update.
//
//vulcan:hotpath
func (t *Table) RangeMut(fn func(vp VPage, p PTE) PTE) {
	for i4, l3 := range t.root.l3s {
		if l3 == nil {
			continue
		}
		for i3, l2 := range l3.l2s {
			if l2 == nil {
				continue
			}
			for i2, leaf := range l2.leaves {
				if leaf == nil || leaf.Live() == 0 {
					continue
				}
				base := VPage(i4)<<27 | VPage(i3)<<18 | VPage(i2)<<9
				for i1 := 0; i1 < EntriesPerTable; i1++ {
					p := leaf.PTE(i1)
					if !p.Present() {
						continue
					}
					np := fn(base|VPage(i1), p)
					if np != p {
						leaf.SetPTE(i1, np)
						if !np.Present() {
							t.mapped--
						}
						wasFast := p.Frame().Tier == mem.TierFast
						isFast := np.Present() && np.Frame().Tier == mem.TierFast
						if wasFast != isFast {
							if isFast {
								t.fastMapped++
							} else {
								t.fastMapped--
							}
						}
					}
				}
			}
		}
	}
}
