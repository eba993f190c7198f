// Package pagetable implements the virtual-memory substrate: x86-64-style
// 4-level radix page tables with a 64-bit PTE word, plus Vulcan's
// per-thread page-table replication (§3.4 of the paper) in which each
// thread owns private upper-level tables while last-level (leaf) tables
// are shared across threads and PTE bits 52–58 are repurposed to track
// thread ownership.
package pagetable

import (
	"fmt"

	"vulcan/internal/mem"
)

// VPage is a virtual page number (virtual address >> 12). With 4 levels of
// 9 bits each, valid VPages occupy 36 bits.
type VPage uint64

// Radix geometry, matching x86-64 4KiB paging.
const (
	// EntriesPerTable is the fan-out of every page-table level.
	EntriesPerTable = 512
	// Levels is the depth of the radix tree (PGD, PUD, PMD, PT).
	Levels = 4
	// MaxVPage bounds the representable virtual page numbers.
	MaxVPage = VPage(1)<<(9*Levels) - 1
)

// PTE is a 64-bit page-table entry word. The layout mirrors x86-64 where
// it matters to the paper:
//
//	bit  0      present
//	bit  5      accessed (set by hardware on access; cleared by scanners)
//	bit  6      dirty    (set by hardware on write)
//	bits 12–43  physical frame index within its tier
//	bits 44–45  tier id
//	bits 52–58  thread owner (paper §4: 7 previously-ignored bits;
//	            0x7F = shared across threads)
type PTE uint64

// Bit positions and masks of the PTE word.
const (
	pteBitPresent  = 0
	pteBitAccessed = 5
	pteBitDirty    = 6
	pteShiftFrame  = 12
	pteShiftTier   = 44
	pteShiftOwner  = 52

	pteMaskFrame = (uint64(1)<<32 - 1) << pteShiftFrame
	pteMaskTier  = uint64(3) << pteShiftTier
	pteMaskOwner = uint64(0x7F) << pteShiftOwner
	pteMaskAD    = uint64(1)<<pteBitAccessed | uint64(1)<<pteBitDirty
)

// OwnerShared is the all-ones owner pattern marking a page shared by
// multiple threads (paper §4: "shared status (all-ones pattern)").
const OwnerShared uint8 = 0x7F

// MaxThreads is the largest thread id representable in the 7 owner bits,
// reserving the all-ones pattern for OwnerShared.
const MaxThreads = 127

// NewPTE builds a present PTE mapping frame with the given owner.
func NewPTE(frame mem.Frame, owner uint8) PTE {
	if frame.IsNil() {
		panic("pagetable: PTE for nil frame")
	}
	if owner > OwnerShared {
		panic(fmt.Sprintf("pagetable: owner %d exceeds 7 bits", owner))
	}
	w := uint64(1) << pteBitPresent
	w |= uint64(frame.Index) << pteShiftFrame
	w |= uint64(frame.Tier) << pteShiftTier
	w |= uint64(owner) << pteShiftOwner
	return PTE(w)
}

// Present reports whether the entry maps a frame.
func (p PTE) Present() bool { return p&(1<<pteBitPresent) != 0 }

// Accessed reports the hardware accessed bit.
func (p PTE) Accessed() bool { return p&(1<<pteBitAccessed) != 0 }

// Dirty reports the hardware dirty bit.
func (p PTE) Dirty() bool { return p&(1<<pteBitDirty) != 0 }

// Frame returns the mapped physical frame. Calling Frame on a non-present
// entry returns mem.NilFrame.
func (p PTE) Frame() mem.Frame {
	if !p.Present() {
		return mem.NilFrame
	}
	return mem.Frame{
		Tier:  mem.TierID((uint64(p) & pteMaskTier) >> pteShiftTier),
		Index: uint32((uint64(p) & pteMaskFrame) >> pteShiftFrame),
	}
}

// fastTier reports whether the entry's tier field names the fast tier.
// Callers test Present separately.
func (p PTE) fastTier() bool {
	return uint64(p)&pteMaskTier == uint64(mem.TierFast)<<pteShiftTier
}

// accessedOrDirty reports whether the accessed or dirty bit is set.
func (p PTE) accessedOrDirty() bool { return uint64(p)&pteMaskAD != 0 }

// Owner returns the owning thread id, or OwnerShared.
func (p PTE) Owner() uint8 {
	return uint8((uint64(p) & pteMaskOwner) >> pteShiftOwner)
}

// Shared reports whether the entry carries the shared-owner pattern.
func (p PTE) Shared() bool { return p.Owner() == OwnerShared }

// WithAccessed returns the entry with the accessed bit set or cleared.
func (p PTE) WithAccessed(v bool) PTE {
	if v {
		return p | (1 << pteBitAccessed)
	}
	return p &^ (1 << pteBitAccessed)
}

// WithDirty returns the entry with the dirty bit set or cleared.
func (p PTE) WithDirty(v bool) PTE {
	if v {
		return p | (1 << pteBitDirty)
	}
	return p &^ (1 << pteBitDirty)
}

// WithOwner returns the entry with the owner field replaced.
func (p PTE) WithOwner(owner uint8) PTE {
	if owner > OwnerShared {
		panic(fmt.Sprintf("pagetable: owner %d exceeds 7 bits", owner))
	}
	return PTE(uint64(p)&^pteMaskOwner | uint64(owner)<<pteShiftOwner)
}

// WithFrame returns the entry remapped to a new frame, preserving flags
// and ownership. This is the remap step of page migration.
func (p PTE) WithFrame(frame mem.Frame) PTE {
	if frame.IsNil() {
		panic("pagetable: remap to nil frame")
	}
	w := uint64(p) &^ (pteMaskFrame | pteMaskTier)
	w |= uint64(frame.Index) << pteShiftFrame
	w |= uint64(frame.Tier) << pteShiftTier
	return PTE(w)
}

// String renders the entry for debugging.
func (p PTE) String() string {
	if !p.Present() {
		return "PTE{absent}"
	}
	owner := "shared"
	if !p.Shared() {
		owner = fmt.Sprintf("t%d", p.Owner())
	}
	return fmt.Sprintf("PTE{%v a=%t d=%t %s}", p.Frame(), p.Accessed(), p.Dirty(), owner)
}

// Radix index helpers: the four 9-bit slices of a VPage, from root (l4)
// down to leaf (l1).
func splitVPage(vp VPage) (i4, i3, i2, i1 int) {
	return int(vp >> 27 & 0x1FF), int(vp >> 18 & 0x1FF),
		int(vp >> 9 & 0x1FF), int(vp & 0x1FF)
}

// LeafIndex identifies the leaf table covering vp; two VPages share a leaf
// iff their LeafIndex matches.
func LeafIndex(vp VPage) uint64 { return uint64(vp >> 9) }
