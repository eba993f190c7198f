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
}

// Replicated is Vulcan's per-thread page table structure (Figure 6,
// right): each thread owns private upper-level tables (PGD/PUD/PMD
// analogues) while last-level leaf tables are shared by all threads, and
// PTE owner bits track which thread — or the shared pattern — maps each
// page.
//
// A process-wide union table (the paper's process_pgd) is kept alongside
// the per-thread roots; it shares the same leaf objects, so a PTE update
// through either view is immediately visible in both.
type Replicated struct {
	proc     *Table
	nthreads int
	roots    []*tableL4
	// leafThreads records, per shared leaf, which threads have linked it
	// into their private upper levels — the candidate TLB shootdown scope
	// for shared pages.
	leafThreads map[uint64]*threadSet
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
		proc:            New(),
		nthreads:        nthreads,
		roots:           make([]*tableL4, nthreads),
		leafThreads:     make(map[uint64]*threadSet),
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

// Mapped returns the number of present PTEs (process-wide view).
func (r *Replicated) Mapped() int { return r.proc.Mapped() }

// FastMapped returns the number of present PTEs whose frame lives in the
// fast tier, maintained incrementally by the shared process table.
func (r *Replicated) FastMapped() int { return r.proc.FastMapped() }

// Lookup returns the PTE for vp from the shared leaves.
func (r *Replicated) Lookup(vp VPage) (PTE, bool) { return r.proc.Lookup(vp) }

// Range iterates present PTEs in ascending VPage order.
func (r *Replicated) Range(fn func(vp VPage, p PTE) bool) { r.proc.Range(fn) }

// PresentFrom yields the present-mask words covering pages at or above
// start in ascending order (see Table.PresentFrom).
//
//vulcan:hotpath
func (r *Replicated) PresentFrom(start VPage, fn func(base VPage, word uint64) bool) {
	r.proc.PresentFrom(start, fn)
}

// Words yields the present and fast mask words in ascending order (see
// Table.Words).
//
//vulcan:hotpath
func (r *Replicated) Words(fn func(base VPage, present, fast uint64)) { r.proc.Words(fn) }

// SweepAccessed harvests A/D bits through the shared leaves (see
// Table.SweepAccessed); both the process view and every thread view
// observe the result.
//
//vulcan:hotpath
func (r *Replicated) SweepAccessed(fn func(vp VPage, p PTE) PTE) { r.proc.SweepAccessed(fn) }

// CheckMasks verifies the leaves' present, fast and A/D masks against
// their PTEs: the masks are derived state, so a mismatch means some write
// bypassed Leaf.SetPTE.
func (r *Replicated) CheckMasks() error { return r.proc.checkMasks() }

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
		root.live++
		r.tablesPerThread[tid]++
	}
	l2 := l3.l2s[i3]
	if l2 == nil {
		l2 = &tableL2{}
		l3.l2s[i3] = l2
		l3.live++
		r.tablesPerThread[tid]++
	}
	if l2.leaves[i2] == leaf {
		return l2, false
	}
	if l2.leaves[i2] != nil {
		panic("pagetable: conflicting leaf link")
	}
	l2.leaves[i2] = leaf
	l2.live++
	li := LeafIndex(vp)
	set := r.leafThreads[li]
	if set == nil {
		set = &threadSet{}
		r.leafThreads[li] = set
	}
	set.add(tid)
	return l2, true
}

// Map installs the first mapping for vp on behalf of thread tid, which
// becomes the page's owner ("creates new mappings with thread ID for
// unmapped pages", paper §4).
func (r *Replicated) Map(tid int, vp VPage, p PTE) error {
	c := r.MapCursor()
	return c.Map(tid, vp, p)
}

// MapCursor maps pages through the last leaf it reached and remembers
// which threads it linked there, so a run of Map calls in ascending
// page order walks the process tree once per leaf and links each
// (thread, leaf) pair once. It is short-lived: valid while the table
// is mutated (leaves are never freed), but not across a Restore, which
// rebuilds the tree.
type MapCursor struct {
	r          *Replicated
	c          mapCursor
	linkedLeaf *Leaf
	linked     threadSet // threads this cursor linked into linkedLeaf
}

// MapCursor returns a mapping cursor over the table.
func (r *Replicated) MapCursor() MapCursor {
	return MapCursor{r: r, c: mapCursor{t: r.proc}}
}

// Map is Replicated.Map through the cursor.
func (m *MapCursor) Map(tid int, vp VPage, p PTE) error {
	m.r.checkTid(tid)
	leaf, err := m.c.mapLeaf(vp, p.WithOwner(uint8(tid)))
	if err != nil {
		return err
	}
	if leaf != m.linkedLeaf {
		m.linkedLeaf, m.linked = leaf, threadSet{}
	}
	if !m.linked.has(tid) {
		m.r.linkLeaf(tid, vp, leaf)
		m.linked.add(tid)
	}
	return nil
}

// Install reinstalls vp's mapping with the exact PTE p — owner,
// accessed and dirty bits preserved — linking the shared leaf into
// tid's private tree. It is the migration engine's remap path: Map
// would stamp tid as owner, losing a shared page's ownership.
func (r *Replicated) Install(tid int, vp VPage, p PTE) error {
	r.checkTid(tid)
	leaf, err := r.proc.mapLeaf(vp, p)
	if err != nil {
		return err
	}
	r.linkLeaf(tid, vp, leaf)
	return nil
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
		if leaf, _ = r.proc.leafAt(vp); leaf == nil {
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
	return res, true
}

// Unmap clears vp's PTE in the shared leaf (visible to all threads) and
// returns the prior entry. Private upper-level links are left in place:
// like real page tables, empty leaves are not eagerly torn down.
func (r *Replicated) Unmap(vp VPage) (PTE, bool) { return r.proc.Unmap(vp) }

// AppendShootdownScope appends to dst the thread ids whose TLBs may cache
// vp's translation and therefore must receive invalidations when it
// changes: just the owner for private pages, or every thread that linked
// the page's leaf for shared pages (ascending thread order). This is
// insight ❸ of the paper — the basis of Vulcan's targeted (non-global)
// TLB shootdowns. Appending lets the migration engine reuse one scratch
// buffer across a batch instead of allocating per page.
func (r *Replicated) AppendShootdownScope(dst []int, vp VPage) []int {
	p, ok := r.Lookup(vp)
	if !ok {
		return dst
	}
	if !p.Shared() {
		return append(dst, int(p.Owner()))
	}
	set := r.leafThreads[LeafIndex(vp)]
	if set == nil {
		return dst
	}
	return set.appendMembers(dst)
}

// TotalTables returns all page-table pages: shared leaves plus every
// thread's private upper levels plus the process-wide upper levels. The
// comparison against Table.TableCount for the same mapping quantifies
// replication overhead (§3.6).
func (r *Replicated) TotalTables() int {
	n := r.proc.TableCount() // process view: upper levels + leaves
	for _, c := range r.tablesPerThread {
		n += c
	}
	return n
}
