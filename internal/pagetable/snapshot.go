package pagetable

import (
	"fmt"
	"sort"

	"vulcan/internal/checkpoint"
)

// Snapshot appends the replicated table's durable state: the per-leaf
// thread-link sets and every present PTE. Everything else — private
// upper-level tables, table counts, the process-wide tree — is derived:
// leaves are only ever created by Map/Install (which always link them),
// intermediate tables exist exactly on the paths to linked leaves, and
// neither is ever deallocated, so the (leaf, linkers) relation plus the
// PTE contents reconstruct the structure exactly.
func (r *Replicated) Snapshot(e *checkpoint.Encoder) {
	e.Int(r.nthreads)

	leaves := make([]uint64, 0, len(r.leafThreads))
	for li := range r.leafThreads {
		leaves = append(leaves, li)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	e.Int(len(leaves))
	for _, li := range leaves {
		set := r.leafThreads[li]
		e.U64(li)
		e.U64(set.bits[0])
		e.U64(set.bits[1])
	}

	e.Int(r.proc.Mapped())
	r.proc.Range(func(vp VPage, p PTE) bool {
		e.U64(uint64(vp))
		e.U64(uint64(p))
		return true
	})
}

// Restore rebuilds the table in place from a snapshot. The receiver
// keeps its identity — the migration engine and profilers alias the
// *Replicated pointer — but every internal structure is rebuilt fresh.
func (r *Replicated) Restore(d *checkpoint.Decoder) error {
	nthreads := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if nthreads != r.nthreads {
		return fmt.Errorf("pagetable: %d threads in checkpoint, %d configured",
			nthreads, r.nthreads)
	}

	// Reset to the empty structure NewReplicated builds.
	r.proc = New()
	r.leafThreads = make(map[uint64]*threadSet)
	for i := range r.roots {
		r.roots[i] = &tableL4{}
		r.tablesPerThread[i] = 1
	}

	nLeaves := d.Length(24)
	prevLeaf := uint64(0)
	tidBuf := make([]int, 0, MaxThreads) // reused across leaves
	for i := 0; i < nLeaves; i++ {
		li := d.U64()
		var set threadSet
		set.bits[0] = d.U64()
		set.bits[1] = d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && li <= prevLeaf {
			return fmt.Errorf("pagetable: leaf indices out of order (%d after %d)", li, prevLeaf)
		}
		prevLeaf = li
		// Range-check the index before shifting it: a shift would drop
		// its high bits and alias another leaf.
		if li > LeafIndex(MaxVPage) {
			return fmt.Errorf("pagetable: leaf index %d out of range", li)
		}
		base := VPage(li) << 9
		if set.count() == 0 {
			return fmt.Errorf("pagetable: leaf %d with no linking threads", li)
		}
		leaf, _ := r.proc.walk(base, true)
		for _, tid := range set.appendMembers(tidBuf[:0]) {
			if tid >= r.nthreads {
				return fmt.Errorf("pagetable: leaf %d linked by thread %d of %d",
					li, tid, r.nthreads)
			}
			r.linkLeaf(tid, base, leaf)
		}
	}

	nPTE := d.Length(16)
	prevVP := VPage(0)
	for i := 0; i < nPTE; i++ {
		vp := VPage(d.U64())
		p := PTE(d.U64())
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && vp <= prevVP {
			return fmt.Errorf("pagetable: vpages out of order (%d after %d)", vp, prevVP)
		}
		prevVP = vp
		if _, ok := r.leafThreads[LeafIndex(vp)]; !ok {
			return fmt.Errorf("pagetable: PTE at %#x in unlinked leaf", uint64(vp))
		}
		if !p.Shared() && int(p.Owner()) >= r.nthreads {
			return fmt.Errorf("pagetable: PTE at %#x owned by thread %d of %d",
				uint64(vp), p.Owner(), r.nthreads)
		}
		if err := r.proc.Map(vp, p); err != nil {
			return fmt.Errorf("pagetable: restoring PTE: %w", err)
		}
	}
	return d.Err()
}
