package system

import (
	"fmt"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
)

// AuditReport is the outcome of a frame-ownership audit.
type AuditReport struct {
	// MappedFrames counts frames referenced by page tables.
	MappedFrames int
	// ShadowFrames counts frames held as shadow copies.
	ShadowFrames int
	// FreeFrames counts frames on tier free lists.
	FreeFrames int
	// Errors lists every violation found.
	Errors []string
}

// Ok reports whether the audit found no violations.
func (r AuditReport) Ok() bool { return len(r.Errors) == 0 }

// String summarizes the report.
func (r AuditReport) String() string {
	return fmt.Sprintf("audit{mapped=%d shadow=%d free=%d errors=%d}",
		r.MappedFrames, r.ShadowFrames, r.FreeFrames, len(r.Errors))
}

// Audit verifies the global frame-ownership invariant: every physical
// frame is either on its tier's free list once, mapped by exactly one
// page of exactly one application, held as exactly one shadow copy, or
// seized by a memory-pressure burst — and nothing else. Any
// migration-engine bug that leaks, double-frees or double-maps a frame
// surfaces here. Audit is O(total frames) and meant for tests, reports
// and resumes, not the simulation hot path. It also checks every live
// app's page-table leaf state (Replicated.CheckMasks): the masks against
// the PTEs they mirror, the link sets and the huge leaves.
func (s *System) Audit() AuditReport {
	rep := s.frameAudit()
	for _, a := range s.live {
		if err := a.Table.CheckMasks(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", a.Cfg.Name, err))
		}
	}
	return rep
}

// frameAudit is Audit's frame-ownership half. It claims every frame a
// page maps, a shadow holds, a pressure burst seized or a free stack
// lists, in one bitmap per tier, so a frame claimed twice — a free
// frame that is also in use, or one listed twice — is reported with
// both roles' last claimant. It costs a bit per frame and a visit per
// mapped page, shadow and free frame; Resume runs it on every system it
// restores.
func (s *System) frameAudit() AuditReport {
	var rep AuditReport
	var claimed [mem.NumTiers][]uint64
	for t := range claimed {
		claimed[t] = make([]uint64, (s.tiers.Tier(mem.TierID(t)).Capacity()+63)/64)
	}
	// claim reports whether f names a real frame; a frame claimed twice
	// is an error but still counts.
	claim := func(f mem.Frame, who string, vp pagetable.VPage, kind string) bool {
		if f.IsNil() {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"%s:%#x(%s) holds a nil frame", who, uint64(vp), kind))
			return false
		}
		if int(f.Index) >= s.tiers.Tier(f.Tier).Capacity() {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"%s:%#x(%s) holds out-of-range frame %v", who, uint64(vp), kind, f))
			return false
		}
		w, bit := &claimed[f.Tier][f.Index>>6], uint64(1)<<(f.Index&63)
		if *w&bit != 0 {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"frame %v claimed twice, the second time by %s:%#x(%s)", f, who, uint64(vp), kind))
		}
		*w |= bit
		return true
	}

	for _, f := range s.pressure {
		claim(f, "system", 0, "pressure")
	}
	for _, a := range s.live {
		a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
			if claim(p.Frame(), a.Cfg.Name, vp, "map") {
				rep.MappedFrames++
			}
			return true
		})
		a.Engine.EachShadow(func(vp pagetable.VPage, f mem.Frame) {
			claim(f, a.Cfg.Name, vp, "shadow")
			rep.ShadowFrames++
		})
	}
	// The free stacks last: a frame that is both free and in use is
	// reported as claimed twice by its free-stack entry.
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		s.tiers.Tier(t).EachFree(func(idx uint32) {
			claim(mem.Frame{Tier: t, Index: idx}, "tier", 0, "free")
		})
	}

	// Accounting identity per tier: used == claimed (mapped, shadow and
	// pressure frames are the only allocation sources), and used + free
	// == capacity.
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		tier := s.tiers.Tier(t)
		rep.FreeFrames += tier.FreePages()
		if tier.Used()+tier.FreePages() != tier.Capacity() {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"%s tier: used %d + free %d != capacity %d",
				t, tier.Used(), tier.FreePages(), tier.Capacity()))
		}
	}
	totalUsed := s.tiers.Fast().Used() + s.tiers.Slow().Used()
	if claimed := rep.MappedFrames + rep.ShadowFrames + len(s.pressure); claimed != totalUsed {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"claimed frames %d (mapped %d + shadow %d + pressure %d) != tier-used %d",
			claimed, rep.MappedFrames, rep.ShadowFrames, len(s.pressure), totalUsed))
	}
	return rep
}
