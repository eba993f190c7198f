package pagetable

import (
	"encoding/binary"
	"fmt"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
)

// Snapshot appends the replicated table's durable state: the per-leaf
// thread-link sets and every present PTE. Everything else — private
// upper-level tables, table counts, the process-wide tree — is derived:
// leaves are only ever created by Map/Install (which always link them),
// intermediate tables exist exactly on the paths to linked leaves, and
// neither is ever deallocated, so the (leaf, linkers) relation plus the
// PTE contents reconstruct the structure exactly. The leaves' huge
// flags are not part of it: the owner of the THP policy snapshots them
// (EachHugeLeaf) and sets them again after a restore (SetHuge).
func (r *Replicated) Snapshot(e *checkpoint.Encoder) {
	e.Grow(r.SnapshotSize())
	e.Int(r.nthreads)

	// Every leaf is linked, so the ascending leaf walk yields the link
	// records in leaf-index order.
	e.Int(r.leaves)
	w := leafWalk{t: r.table}
	for base, leaf, ok := w.next(); ok; base, leaf, ok = w.next() {
		e.U64(LeafIndex(base))
		e.U64(leaf.linked.bits[0])
		e.U64(leaf.linked.bits[1])
	}

	e.Int(r.Mapped())
	r.Range(func(vp VPage, p PTE) bool {
		e.U64(uint64(vp))
		e.U64(uint64(p))
		return true
	})
}

// SnapshotSize is the number of bytes Snapshot appends: three counts,
// 24 per leaf and 16 per present PTE.
func (r *Replicated) SnapshotSize() int {
	return 8 + 8 + 24*r.leaves + 8 + 16*r.Mapped()
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
	r.table = newTable()
	for i := range r.roots {
		r.roots[i] = &tableL4{}
		r.tablesPerThread[i] = 1
	}
	clear(r.memo)

	// Decode and check every leaf record before building anything, so
	// the upper-level tables the links need can be counted against what
	// the section can back (see tableBudget).
	nLeaves := d.Length(24)
	leaves := make([]leafRecord, nLeaves)
	tidBuf := make([]int, 0, MaxThreads) // reused across leaves
	for i := range leaves {
		li := d.U64()
		var set threadSet
		set.bits[0] = d.U64()
		set.bits[1] = d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && li <= leaves[i-1].li {
			return fmt.Errorf("pagetable: leaf indices out of order (%d after %d)", li, leaves[i-1].li)
		}
		// Range-check the index before shifting it: a shift would drop
		// its high bits and alias another leaf.
		if li > LeafIndex(MaxVPage) {
			return fmt.Errorf("pagetable: leaf index %d out of range", li)
		}
		members := set.appendMembers(tidBuf[:0])
		if len(members) == 0 {
			return fmt.Errorf("pagetable: leaf %d with no linking threads", li)
		}
		if tid := members[len(members)-1]; tid >= r.nthreads {
			return fmt.Errorf("pagetable: leaf %d linked by thread %d of %d", li, tid, r.nthreads)
		}
		leaves[i] = leafRecord{li: li, set: set}
	}
	nPTE := d.Length(16)
	if d.Err() != nil {
		return d.Err()
	}
	if need, budget := r.privateTables(leaves), tableBudget(r.nthreads, nLeaves, nPTE); need > budget {
		return fmt.Errorf("pagetable: leaf links need %d private tables, more than the %d that %d leaves and %d PTEs can back",
			need, budget, nLeaves, nPTE)
	}
	for _, l := range leaves {
		base := VPage(l.li) << 9
		leaf, _ := r.walk(base)
		for _, tid := range l.set.appendMembers(tidBuf[:0]) {
			r.linkLeaf(tid, base, leaf)
		}
	}

	// The PTEs arrive in ascending order, so one cursor walks to each
	// leaf once, and the leaf's link check runs once per leaf: the tree
	// now holds exactly the linked leaves. Length checked that the
	// section holds every record.
	recs := d.Fixed(16 * nPTE)
	c := mapCursor{t: r.table}
	prevVP := VPage(0)
	for i := 0; i < nPTE; i++ {
		vp := VPage(binary.LittleEndian.Uint64(recs[16*i:]))
		p := PTE(binary.LittleEndian.Uint64(recs[16*i+8:]))
		if i > 0 && vp <= prevVP {
			return fmt.Errorf("pagetable: vpages out of order (%d after %d)", vp, prevVP)
		}
		prevVP = vp
		if !c.at(LeafIndex(vp)) {
			var leaf *Leaf
			if vp <= MaxVPage {
				leaf, _ = r.leafAt(vp)
			}
			if leaf == nil {
				return fmt.Errorf("pagetable: PTE at %#x in unlinked leaf", uint64(vp))
			}
		}
		if !p.Shared() && int(p.Owner()) >= r.nthreads {
			return fmt.Errorf("pagetable: PTE at %#x owned by thread %d of %d",
				uint64(vp), p.Owner(), r.nthreads)
		}
		// A present entry's fast mask bit is its only tier record: the
		// entries that are not fast must be exactly the slow ones.
		if p.Present() && !p.Frame().Tier.Valid() {
			return fmt.Errorf("pagetable: PTE at %#x names tier %d of %d", uint64(vp), p.Frame().Tier, mem.NumTiers)
		}
		if _, err := c.mapLeaf(vp, p); err != nil {
			return fmt.Errorf("pagetable: restoring PTE: %w", err)
		}
	}
	return d.Err()
}

// leafRecord is one decoded (leaf, linking threads) snapshot entry.
type leafRecord struct {
	li  uint64
	set threadSet
}

// privateTables counts the upper-level tables (beyond the roots) that
// linking leaves, given in ascending order, builds in the threads'
// private trees: per thread, one L3 table per distinct 512 GiB region
// and one L2 table per distinct 1 GiB region among the leaves it links.
func (r *Replicated) privateTables(leaves []leafRecord) int {
	lastL2 := make([]uint64, r.nthreads) // L2 region+1 last linked, 0 for none
	lastL3 := make([]uint64, r.nthreads)
	tables := 0
	tidBuf := make([]int, 0, MaxThreads)
	for _, l := range leaves {
		l2, l3 := l.li>>9+1, l.li>>18+1
		for _, tid := range l.set.appendMembers(tidBuf[:0]) {
			if lastL3[tid] != l3 {
				lastL3[tid] = l3
				tables++
			}
			if lastL2[tid] != l2 {
				lastL2[tid] = l2
				tables++
			}
		}
	}
	return tables
}

// tableBudget bounds the private upper-level tables a restore may build,
// so a crafted section cannot make every one of up to MaxThreads threads
// allocate two 4 KiB tables per 24-byte leaf record. Each thread may use
// one L3 and one L2 table (every thread of a tenant under 1 GiB needs no
// more), plus two tables per leaf or PTE record: a table that only
// sparse links justify must be paid for in section bytes. Restore's
// memory then grows with the section, not with threads × leaves.
func tableBudget(nthreads, nLeaves, nPTE int) int {
	return 2*nthreads + 2*(nLeaves+nPTE)
}
