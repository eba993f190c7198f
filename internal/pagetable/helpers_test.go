package pagetable

import "math/bits"

// threadMapsLeaf reports whether tid has linked the leaf covering vp.
func (r *Replicated) threadMapsLeaf(tid int, vp VPage) bool {
	r.checkTid(tid)
	leaf, _ := r.leafAt(vp)
	return leaf != nil && leaf.linked.has(tid)
}

// upperTables returns the number of private upper-level tables held by
// tid, including its root.
func (r *Replicated) upperTables(tid int) int {
	r.checkTid(tid)
	return r.tablesPerThread[tid]
}

// sharedLeaves returns the number of shared last-level tables.
func (r *Replicated) sharedLeaves() int { return r.leaves }

// Live returns the number of present entries in the leaf.
func (l *Leaf) Live() int {
	n := 0
	for _, w := range l.present {
		n += bits.OnesCount64(w)
	}
	return n
}
