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
// frame is either on its tier's free list, mapped by exactly one page of
// exactly one application, or held as exactly one shadow copy — and
// nothing else. Any migration-engine bug that leaks, double-frees or
// double-maps a frame surfaces here. Audit is O(total frames) and meant
// for tests and debugging, not the simulation hot path. It also checks
// every live app's page-table leaf masks (fast tier, A/D) against the
// PTEs they mirror.
func (s *System) Audit() AuditReport {
	var rep AuditReport

	type owner struct {
		app  string
		vp   pagetable.VPage
		kind string // "map" or "shadow"
	}
	seen := make(map[mem.Frame]owner)

	claim := func(f mem.Frame, o owner) {
		if prev, dup := seen[f]; dup {
			rep.Errors = append(rep.Errors, fmt.Sprintf(
				"frame %v claimed twice: %s:%#x(%s) and %s:%#x(%s)",
				f, prev.app, uint64(prev.vp), prev.kind, o.app, uint64(o.vp), o.kind))
			return
		}
		seen[f] = o
	}

	for _, a := range s.live {
		a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
			f := p.Frame()
			if f.IsNil() {
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"%s:%#x maps a nil frame", a.Cfg.Name, uint64(vp)))
				return true
			}
			if int(f.Index) >= s.tiers.Tier(f.Tier).Capacity() {
				rep.Errors = append(rep.Errors, fmt.Sprintf(
					"%s:%#x maps out-of-range frame %v", a.Cfg.Name, uint64(vp), f))
				return true
			}
			claim(f, owner{a.Cfg.Name, vp, "map"})
			rep.MappedFrames++
			return true
		})
		rep.ShadowFrames += a.Engine.Shadows().Live
		if err := a.Table.CheckMasks(); err != nil {
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %v", a.Cfg.Name, err))
		}
	}

	// Accounting identity per tier: used == claimed (mapped + shadows are
	// the only allocation sources), and used + free == capacity.
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
	if claimed := rep.MappedFrames + rep.ShadowFrames; claimed != totalUsed {
		rep.Errors = append(rep.Errors, fmt.Sprintf(
			"claimed frames %d (mapped %d + shadow %d) != tier-used %d",
			claimed, rep.MappedFrames, rep.ShadowFrames, totalUsed))
	}
	return rep
}
