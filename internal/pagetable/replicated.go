package pagetable

import (
	"fmt"
	"math/bits"
)

// threadSet is a bitmap over thread ids (at most MaxThreads).
type threadSet struct {
	bits [2]uint64
}

func (s *threadSet) add(tid int) { s.bits[tid>>6] |= 1 << (tid & 63) }

// has reports whether tid is in the set.
func (s *threadSet) has(tid int) bool { return s.bits[tid>>6]&(1<<(tid&63)) != 0 }

// appendMembers appends the set's thread ids to dst in ascending order
// and returns it, so hot callers can reuse one buffer across pages.
func (s *threadSet) appendMembers(dst []int) []int {
	for i, w := range s.bits {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, i<<6+bits.TrailingZeros64(w))
		}
	}
	return dst
}

// TouchResult describes what a simulated memory access did to the page
// tables.
type TouchResult struct {
	PTE          PTE  // entry after the access
	LinkedLeaf   bool // a minor fault linked the shared leaf into this thread's tree
	BecameShared bool // ownership transitioned private -> shared on this access
	Huge         bool // the page's leaf is mapped as one 2MiB huge page
}

// Replicated is Vulcan's per-thread page table structure (Figure 6,
// right): each thread owns private upper-level tables (PGD/PUD/PMD
// analogues) while last-level leaf tables are shared by all threads, and
// PTE owner bits track which thread — or the shared pattern — maps each
// page.
//
// The embedded table is the process-wide union view (the paper's
// process_pgd) kept alongside the per-thread roots; it holds the same
// leaf objects, so a PTE update through either view is immediately
// visible in both, and its lookups, walks and counts are the
// structure's own.
type Replicated struct {
	*table
	nthreads int
	roots    []*tableL4
	// tablesPerThread counts upper-level tables allocated per thread
	// (including the root), the replication memory overhead of §3.6.
	tablesPerThread []int
	// memo holds, per thread, the L2 table of the thread's own tree
	// that its last linking Touch went through. A leaf in one of its
	// slots is linked into that thread's tree by definition. Tables and
	// leaves are never freed and links never removed, so an entry stays
	// exact until Restore rebuilds the trees and clears them all.
	memo []touchMemo
}

// touchMemo is one thread's Touch memo; a nil l2 is empty.
type touchMemo struct {
	region uint64 // the 1 GiB region l2 covers: LeafIndex >> 9
	l2     *tableL2
}

// NewReplicated builds an empty replicated table for nthreads threads.
func NewReplicated(nthreads int) *Replicated {
	if nthreads <= 0 || nthreads > MaxThreads {
		panic(fmt.Sprintf("pagetable: %d threads outside [1,%d]", nthreads, MaxThreads))
	}
	r := &Replicated{
		table:           newTable(),
		nthreads:        nthreads,
		roots:           make([]*tableL4, nthreads),
		tablesPerThread: make([]int, nthreads),
		memo:            make([]touchMemo, nthreads),
	}
	for i := range r.roots {
		r.roots[i] = &tableL4{}
		r.tablesPerThread[i] = 1
	}
	return r
}

// Threads returns the number of threads the structure was built for.
func (r *Replicated) Threads() int { return r.nthreads }

// CheckMasks verifies the leaves' present, fast and A/D masks against
// their PTEs — the masks are derived state, so a mismatch means some
// write bypassed Leaf.SetPTE — and the leaf state beside them: link
// sets, huge flags and the leaf counts.
func (r *Replicated) CheckMasks() error { return r.checkMasks() }

func (r *Replicated) checkTid(tid int) {
	if tid < 0 || tid >= r.nthreads {
		panic(fmt.Sprintf("pagetable: thread %d outside [0,%d)", tid, r.nthreads))
	}
}

// linkLeaf ensures the shared leaf covering vp is reachable from tid's
// private upper levels, allocating private intermediate tables as needed.
// It returns tid's L2 table holding the link and reports whether a new
// link was established (a minor fault).
func (r *Replicated) linkLeaf(tid int, vp VPage, leaf *Leaf) (*tableL2, bool) {
	i4, i3, i2, _ := splitVPage(vp)
	root := r.roots[tid]
	l3 := root.l3s[i4]
	if l3 == nil {
		l3 = &tableL3{}
		root.l3s[i4] = l3
		raise(&root.top, i4)
		r.tablesPerThread[tid]++
	}
	l2 := l3.l2s[i3]
	if l2 == nil {
		l2 = &tableL2{}
		l3.l2s[i3] = l2
		raise(&l3.top, i3)
		r.tablesPerThread[tid]++
	}
	if l2.leaves[i2] == leaf {
		return l2, false
	}
	if l2.leaves[i2] != nil {
		panic("pagetable: conflicting leaf link")
	}
	l2.leaves[i2] = leaf
	raise(&l2.top, i2)
	leaf.linked.add(tid)
	return l2, true
}

// Map installs the first mapping for vp on behalf of thread tid, which
// becomes the page's owner ("creates new mappings with thread ID for
// unmapped pages", paper §4).
func (r *Replicated) Map(tid int, vp VPage, p PTE) error {
	c := r.MapCursor()
	return c.Map(tid, vp, p)
}

// MapCursor maps pages through the last leaf it reached, so a run of
// Map calls in ascending page order walks the process tree once per
// leaf, and links a thread only when the leaf's link set lacks it. It
// is short-lived: valid while the table is mutated (leaves are never
// freed), but not across a Restore, which rebuilds the tree.
type MapCursor struct {
	r *Replicated
	c mapCursor
}

// MapCursor returns a mapping cursor over the table.
func (r *Replicated) MapCursor() MapCursor {
	return MapCursor{r: r, c: mapCursor{t: r.table}}
}

// Map is Replicated.Map through the cursor.
func (m *MapCursor) Map(tid int, vp VPage, p PTE) error {
	m.r.checkTid(tid)
	leaf, err := m.c.mapLeaf(vp, p.WithOwner(uint8(tid)))
	if err != nil {
		return err
	}
	if !leaf.linked.has(tid) {
		m.r.linkLeaf(tid, vp, leaf)
	}
	return nil
}

// Install reinstalls vp's mapping with the exact PTE p — owner,
// accessed and dirty bits preserved — linking the shared leaf into
// tid's private tree. It is the migration engine's remap path: Map
// would stamp tid as owner, losing a shared page's ownership.
func (r *Replicated) Install(tid int, vp VPage, p PTE) error {
	r.checkTid(tid)
	leaf, err := r.mapLeaf(vp, p)
	if err != nil {
		return err
	}
	r.linkLeaf(tid, vp, leaf)
	return nil
}

// Link links the leaf covering the mapped page vp into tid's private
// tree, the link Install makes after it writes an entry. The migration
// engine makes it for a page whose move found no frame, in place of
// reinstalling the entry it never removed.
func (r *Replicated) Link(tid int, vp VPage) {
	r.checkTid(tid)
	leaf, _ := r.leafAt(vp)
	if leaf == nil {
		panic(fmt.Sprintf("pagetable: linking unmapped vpage %#x", uint64(vp)))
	}
	if !leaf.linked.has(tid) {
		r.linkLeaf(tid, vp, leaf)
	}
}

// Touch simulates a hardware access by thread tid: it sets the accessed
// (and, for writes, dirty) bit and performs the paper's fault-handler
// ownership transitions — linking the shared leaf into tid's tree when
// absent and flipping the owner field to the shared pattern when a second
// thread touches a private page. ok is false when vp is unmapped (a major
// fault the caller must service by allocating and calling Map).
//
// A touch of a leaf in the thread's memoized L2 table skips both
// walks: that leaf is already linked into tid's tree, so LinkedLeaf is
// false.
func (r *Replicated) Touch(tid int, vp VPage, write bool) (TouchResult, bool) {
	r.checkTid(tid)
	li, m := LeafIndex(vp), &r.memo[tid]
	var leaf *Leaf
	if m.l2 != nil && m.region == li>>9 {
		leaf = m.l2.leaves[li&(EntriesPerTable-1)]
	}
	hit := leaf != nil
	if !hit {
		if leaf, _ = r.leafAt(vp); leaf == nil {
			return TouchResult{}, false
		}
	}
	i := int(vp & (EntriesPerTable - 1))
	old := leaf.PTE(i)
	if !old.Present() {
		return TouchResult{}, false
	}
	var res TouchResult
	if !hit {
		m.l2, res.LinkedLeaf = r.linkLeaf(tid, vp, leaf)
		m.region = li >> 9
	}
	p := old
	if !p.Shared() && p.Owner() != uint8(tid) {
		p = p.WithOwner(OwnerShared)
		res.BecameShared = true
	}
	p = p.WithAccessed(true)
	if write {
		p = p.WithDirty(true)
	}
	// Most accesses find their bits already set; skip the store then.
	if p != old {
		leaf.SetPTE(i, p)
	}
	res.PTE = p
	res.Huge = leaf.huge
	return res, true
}

// AppendShootdownScope appends to dst the thread ids whose TLBs may cache
// vp's translation and therefore must receive invalidations when it
// changes: just the owner for private pages, or every thread that linked
// the page's leaf for shared pages (ascending thread order). This is
// insight ❸ of the paper — the basis of Vulcan's targeted (non-global)
// TLB shootdowns. Appending lets the migration engine reuse one scratch
// buffer across a batch instead of allocating per page.
func (r *Replicated) AppendShootdownScope(dst []int, vp VPage) []int {
	leaf, i := r.leafAt(vp)
	if leaf == nil {
		return dst
	}
	switch p := leaf.PTE(i); {
	case !p.Present():
		return dst
	case !p.Shared():
		return append(dst, int(p.Owner()))
	}
	return leaf.linked.appendMembers(dst)
}

// TotalTables returns all page-table pages: shared leaves plus every
// thread's private upper levels plus the process-wide upper levels. The
// comparison against TableCount, the process view's tables alone,
// quantifies replication overhead (§3.6).
func (r *Replicated) TotalTables() int {
	n := r.TableCount() // process view: upper levels + leaves
	for _, c := range r.tablesPerThread {
		n += c
	}
	return n
}

// SetHuge marks leaf li as mapped by one 2MiB huge page. Only a leaf
// with every slot present can be huge; SetHuge reports an error for any
// other.
func (r *Replicated) SetHuge(li uint64) error {
	if li > LeafIndex(MaxVPage) {
		return fmt.Errorf("pagetable: huge leaf %d out of range", li)
	}
	leaf, _ := r.leafAt(VPage(li) << 9)
	if leaf == nil || !leaf.full() {
		return fmt.Errorf("pagetable: huge leaf %d not fully mapped", li)
	}
	if !leaf.huge {
		leaf.huge = true
		r.huge++
	}
	return nil
}

// SplitHuge breaks the huge mapping of the leaf covering vp into base
// pages, reporting whether there was one to break (callers charge the
// split cost only then).
func (r *Replicated) SplitHuge(vp VPage) bool {
	leaf, _ := r.leafAt(vp)
	if leaf == nil || !leaf.huge {
		return false
	}
	leaf.huge = false
	r.huge--
	return true
}

// HugeLeaves returns the number of leaves mapped as huge pages.
func (r *Replicated) HugeLeaves() int { return r.huge }

// EachHugeLeaf calls fn with the index of every huge leaf in ascending
// order.
func (r *Replicated) EachHugeLeaf(fn func(li uint64)) {
	w := leafWalk{t: r.table}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		if leaf.huge {
			fn(LeafIndex(base))
		}
	}
}
