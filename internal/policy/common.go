// Package policy implements the state-of-the-art tiering systems the
// paper compares against (§5): TPP (hint-fault promotion with
// watermark-driven reclaim), Memtis (PEBS-based global hotness ranking),
// and Nomad (asynchronous transactional migration with page shadowing).
// All run against the same simulated substrate as Vulcan, differing only
// in policy logic and the mechanisms they declare.
package policy

import (
	"math/bits"

	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/radix"
	"vulcan/internal/system"
)

// GlobalPage is one page in a cross-application ranking: a demotion
// victim or a promotion pick.
type GlobalPage struct {
	App *system.App
	VP  pagetable.VPage
}

// PageSet is a dense set of one app's virtual pages, one bit per page
// number up to the highest page added. Reset keeps the storage, so a
// set rebuilt every epoch allocates only at a new high-water page.
type PageSet struct {
	bits []uint64
	n    int
}

// Add inserts vp.
func (s *PageSet) Add(vp pagetable.VPage) {
	w := int(vp >> 6)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if bit := uint64(1) << (vp & 63); s.bits[w]&bit == 0 {
		s.bits[w] |= bit
		s.n++
	}
}

// Has reports whether vp is in the set.
func (s *PageSet) Has(vp pagetable.VPage) bool {
	w := int(vp >> 6)
	return w < len(s.bits) && s.bits[w]&(1<<(vp&63)) != 0
}

// Len returns the number of pages in the set.
func (s *PageSet) Len() int { return s.n }

// Reset empties the set, keeping its storage.
func (s *PageSet) Reset() {
	clear(s.bits)
	s.n = 0
}

// RankBuf holds reusable ranking buffers so a policy's per-epoch
// candidate selection allocates nothing in steady state. Every method's
// returned slice aliases the buffer: it is valid until the next call of
// the same method on the same RankBuf, and must not be retained across
// epochs. Policies embed one RankBuf per instance (systems are
// single-threaded; sweep workers each own a policy instance).
type RankBuf struct {
	moves []migrate.Move

	selCold   radix.Select[pagetable.VPage]
	selSlow   radix.Select[pagetable.VPage]
	selVictim radix.Select[GlobalPage]
}

// rankMinor packs the (app, page) tie-break into one radix key: app
// index ascending, then page number ascending. VPage is at most 36 bits,
// so the app index occupies the clear high bits.
func rankMinor(appIndex int, vp pagetable.VPage) uint64 {
	return uint64(appIndex)<<36 | uint64(vp)
}

// ColdestFastPages returns up to n of app's fast-tier pages ordered by
// ascending profiled heat, then page number (unprofiled pages count as
// coldest). It reads the fast pages and their heats 64 at a time.
func (b *RankBuf) ColdestFastPages(a *system.App, n int) []pagetable.VPage {
	if n <= 0 {
		return nil
	}
	sel := &b.selCold
	sel.Reset(n)
	a.Table.Words(func(base pagetable.VPage, _, fast uint64) {
		if fast == 0 {
			return
		}
		hw := a.Profiler.HeatWord(base)
		for ; fast != 0; fast &= fast - 1 {
			i := bits.TrailingZeros64(fast)
			vp := base | pagetable.VPage(i)
			sel.Offer(radix.FloatKeyAsc(hw.Heat(i)), uint64(vp), vp)
		}
	})
	return sel.Sorted()
}

// GlobalColdestFastPages returns up to n fast-resident pages across all
// started apps, coldest first by intensity-weighted heat, then app
// index, then page number — the victim order of a global
// (fairness-blind) reclaim pass. Pages in keep[app.Index] are skipped;
// keep may be nil or shorter than the app list.
func (b *RankBuf) GlobalColdestFastPages(sys *system.System, n int, keep []PageSet) []GlobalPage {
	if n <= 0 {
		return nil
	}
	sel := &b.selVictim
	sel.Reset(n)
	for _, a := range sys.StartedApps() {
		w := a.SampleWeight()
		idx := a.Index
		var ka *PageSet
		if idx < len(keep) {
			ka = &keep[idx]
		}
		a.Table.Words(func(base pagetable.VPage, _, fast uint64) {
			if fast == 0 {
				return
			}
			hw := a.Profiler.HeatWord(base)
			for ; fast != 0; fast &= fast - 1 {
				i := bits.TrailingZeros64(fast)
				vp := base | pagetable.VPage(i)
				if ka == nil || !ka.Has(vp) {
					sel.Offer(radix.FloatKeyAsc(hw.Heat(i)*w), rankMinor(idx, vp), GlobalPage{a, vp})
				}
			}
		})
	}
	return sel.Sorted()
}

// SlowPagesWithHeat returns up to limit of app's profiled pages resident
// in the slow tier, hottest first, then by page number. The slow pages
// of a mask word are its present pages that are not fast (the machine
// has two tiers), and the profiled ones among them are the heat word's
// live pages.
func (b *RankBuf) SlowPagesWithHeat(a *system.App, limit int) []pagetable.VPage {
	sel := &b.selSlow
	sel.Reset(limit)
	a.Table.Words(func(base pagetable.VPage, present, fast uint64) {
		slow := present &^ fast
		if slow == 0 {
			return
		}
		hw := a.Profiler.HeatWord(base)
		for slow &= hw.Live; slow != 0; slow &= slow - 1 {
			i := bits.TrailingZeros64(slow)
			vp := base | pagetable.VPage(i)
			sel.Offer(radix.FloatKeyDesc(hw.Heat(i)), uint64(vp), vp)
		}
	})
	return sel.Sorted()
}

// PromoteMoves builds fast-tier moves for the given pages in the reusable
// move buffer.
func (b *RankBuf) PromoteMoves(vps []pagetable.VPage) []migrate.Move {
	out := b.moves[:0]
	for _, vp := range vps {
		out = append(out, migrate.Move{VP: vp, To: mem.TierFast})
	}
	b.moves = out
	return out
}

// EnqueueVictims spreads demotions onto each victim's own app queue.
func EnqueueVictims(victims []GlobalPage) {
	for _, v := range victims {
		v.App.Async.EnqueueOne(migrate.Move{VP: v.VP, To: mem.TierSlow})
	}
}

// profilerSeed derives a deterministic per-app profiler seed.
func profilerSeed(app *system.App) uint64 {
	return uint64(app.Index)*2654435761 + 17
}

// Fast-tier free fractions that trigger (lowWatermark) and terminate
// (highWatermark) the watermark-driven demotion TPP and Nomad share.
const (
	lowWatermark  float64 = 0.02
	highWatermark float64 = 0.08
)

// FreeFastFraction returns the fast tier's free-page fraction.
func FreeFastFraction(sys *system.System) float64 {
	f := sys.Tiers().Fast()
	return float64(f.FreePages()) / float64(f.Capacity())
}
