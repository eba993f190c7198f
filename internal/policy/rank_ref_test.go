package policy_test

import (
	"math"
	"slices"
	"testing"

	"vulcan/internal/core"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/policy"
	"vulcan/internal/profile"
	"vulcan/internal/radix"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// The rankers read 64 pages per page-table mask word and heat word.
// The references below are the per-page rankers they replace: the fast
// pages from a filtered Range with one Profiler.Heat call each, and the
// slow candidates from HeatPages with one Lookup each. Every key
// is a total order with a unique page (or app-and-page) minor, so the
// walks must select the same pages in the same order.

// rangeFast calls fn for every present fast-tier page of a, in
// ascending order.
func rangeFast(a *system.App, fn func(vp pagetable.VPage)) {
	a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
		if p.Frame().Tier == mem.TierFast {
			fn(vp)
		}
		return true
	})
}

func refColdestFastPages(a *system.App, n int) []pagetable.VPage {
	if n <= 0 {
		return nil
	}
	var sel radix.Select[pagetable.VPage]
	sel.Reset(n)
	rangeFast(a, func(vp pagetable.VPage) {
		sel.Offer(radix.FloatKeyAsc(a.Profiler.Heat(vp)), uint64(vp), vp)
	})
	return sel.Sorted()
}

func refGlobalColdestFastPages(sys *system.System, n int, keep []policy.PageSet) []policy.GlobalPage {
	if n <= 0 {
		return nil
	}
	var sel radix.Select[policy.GlobalPage]
	sel.Reset(n)
	for _, a := range sys.StartedApps() {
		rangeFast(a, func(vp pagetable.VPage) {
			if a.Index < len(keep) && keep[a.Index].Has(vp) {
				return
			}
			sel.Offer(radix.FloatKeyAsc(a.Profiler.Heat(vp)*a.SampleWeight()), uint64(a.Index)<<36|uint64(vp), policy.GlobalPage{App: a, VP: vp})
		})
	}
	return sel.Sorted()
}

func refHottestSlowPages(a *system.App, limit int) []profile.PageHeat {
	var sel radix.Select[profile.PageHeat]
	sel.Reset(limit)
	for _, ph := range a.Profiler.HeatPages() {
		if p, ok := a.Table.Lookup(ph.VP); ok && p.Frame().Tier == mem.TierSlow {
			sel.Offer(radix.FloatKeyDesc(ph.Heat), uint64(ph.VP), ph)
		}
	}
	return sel.Sorted()
}

// samePageHeats compares page, heat and write fraction bit for bit.
func samePageHeats(a, b []profile.PageHeat) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].VP != b[i].VP || math.Float64bits(a[i].Heat) != math.Float64bits(b[i].Heat) ||
			math.Float64bits(a[i].WriteFrac) != math.Float64bits(b[i].WriteFrac) {
			return false
		}
	}
	return true
}

// rankCounts tallies what a comparison covered, so a test can require
// that every ranker selected something.
type rankCounts struct{ cold, global, slow int }

// withHeat reads each page's heat and write fraction the way Vulcan
// reads its kept candidates: through Profiler.Heat and WriteFraction.
func withHeat(a *system.App, vps []pagetable.VPage) []profile.PageHeat {
	out := make([]profile.PageHeat, len(vps))
	for i, vp := range vps {
		out[i] = profile.PageHeat{VP: vp, Heat: a.Profiler.Heat(vp), WriteFrac: a.Profiler.WriteFraction(vp)}
	}
	return out
}

// checkApp compares ColdestFastPages and SlowPagesWithHeat with their
// references on a, at limits from one page to past every candidate.
// The slow pages' heats and write fractions, read back per page, must
// match the reference's bit for bit.
func checkApp(t *testing.T, where string, a *system.App, c *rankCounts) {
	t.Helper()
	var b policy.RankBuf
	for _, n := range []int{0, 1, 7, 100, a.Table.FastMapped() + 1} {
		got, want := b.ColdestFastPages(a, n), refColdestFastPages(a, n)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: ColdestFastPages(%d) = %v, reference %v", where, n, got, want)
		}
		c.cold += len(got)
	}
	for _, n := range []int{0, 1, 7, 100, a.Profiler.Tracked() + 1} {
		got, want := withHeat(a, b.SlowPagesWithHeat(a, n)), refHottestSlowPages(a, n)
		if !samePageHeats(got, want) {
			t.Fatalf("%s: SlowPagesWithHeat(%d) = %v, reference %v", where, n, got, want)
		}
		c.slow += len(got)
	}
}

// checkGlobal compares GlobalColdestFastPages with its reference under
// keep, at limits from one page to past every fast page.
func checkGlobal(t *testing.T, where string, sys *system.System, keep []policy.PageSet, c *rankCounts) {
	t.Helper()
	var b policy.RankBuf
	all := 1
	for _, a := range sys.StartedApps() {
		all += a.Table.FastMapped()
	}
	for _, n := range []int{0, 1, 7, 100, all} {
		got, want := b.GlobalColdestFastPages(sys, n, keep), refGlobalColdestFastPages(sys, n, keep)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: GlobalColdestFastPages(%d) picks %d pages, reference %d, or in another order", where, n, len(got), len(want))
		}
		c.global += len(got)
	}
}

// rankSystem is a three-app co-location whose fast tier holds under
// half the RSS, so every policy demotes and promotes.
func rankSystem(pol system.Tiering) *system.System {
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 4096
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 15
	kv := func(p int, rng *sim.RNG) workload.Generator { return workload.NewKeyValue(p, rng) }
	return system.New(system.Config{
		Machine: mcfg,
		Apps: []workload.AppConfig{
			{Name: "lc", Class: workload.LC, Threads: 2, RSSPages: 3000, SharedFraction: 0.9,
				ComputeNs: 100 * sim.Nanosecond, OpsPerSec: 1e5, NewGen: kv},
			{Name: "be", Class: workload.BE, Threads: 2, RSSPages: 6000, SharedFraction: 0.9,
				ComputeNs: 25 * sim.Nanosecond,
				NewGen:    func(p int, rng *sim.RNG) workload.Generator { return workload.NewMLTrain(p, rng) }},
			{Name: "kv", Class: workload.LC, Threads: 2, RSSPages: 2000, SharedFraction: 0.5,
				ComputeNs: 50 * sim.Nanosecond, OpsPerSec: 3e5, NewGen: kv},
		},
		Policy:           pol,
		EpochLength:      20 * sim.Millisecond,
		SamplesPerThread: 800,
		Seed:             13,
	})
}

// TestRankersMatchPerPageReference runs seeded systems under TPP,
// Nomad, Memtis and Vulcan, one profiler kind or decay each, and after
// every epoch compares the word-walking rankers with the per-page
// references on every app; under Memtis the global victims are also
// compared with its hot sets as the keep sets.
func TestRankersMatchPerPageReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  system.Tiering
	}{
		{"tpp", policy.NewTPP()},
		{"nomad", policy.NewNomad()},
		{"memtis", policy.NewMemtis()},
		{"vulcan", core.New(core.Options{})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := rankSystem(tc.pol)
			var c rankCounts
			for e := 0; e < 15; e++ {
				sys.RunEpoch()
				for _, a := range sys.StartedApps() {
					checkApp(t, tc.name+" "+a.Name(), a, &c)
				}
				checkGlobal(t, tc.name, sys, nil, &c)
				if m, ok := tc.pol.(*policy.Memtis); ok {
					checkGlobal(t, tc.name+" keep", sys, m.HotSets(), &c)
				}
			}
			if c.cold == 0 || c.global == 0 || c.slow == 0 {
				t.Fatalf("a ranker never selected a page: %+v", c)
			}
		})
	}
}

// edgeApp maps pages onto a bare app's table, fast when fast(vp), and
// records reads and writes on a PEBS profiler that samples every
// access.
type edgeApp struct{ *system.App }

func newEdgeApp() edgeApp {
	return edgeApp{&system.App{
		Table:    pagetable.NewReplicated(1),
		Profiler: profile.NewPEBSWithDecay(1, profile.DefaultDecay, 3),
	}}
}

func (a edgeApp) mapRange(t *testing.T, from, to pagetable.VPage, fast func(pagetable.VPage) bool) {
	t.Helper()
	for vp := from; vp < to; vp++ {
		tier := mem.TierSlow
		if fast(vp) {
			tier = mem.TierFast
		}
		if err := a.Table.Map(0, vp, pagetable.NewPTE(mem.Frame{Tier: tier, Index: uint32(vp)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
}

func (a edgeApp) record(vp pagetable.VPage, reads, writes int) {
	for i := 0; i < reads+writes; i++ {
		a.Profiler.Record(profile.Access{VP: vp, Write: i < writes})
	}
}

// TestRankersMatchReferenceOnEdgeCases compares the rankers with the
// references on hand-built states: tracked pages that are unmapped,
// present pages past a heat chunk's 512-cell head, a leaf whose heat
// chunk was never allocated, zero-heat fast pages among tracked ones,
// evicted cells, a far chunk in a second directory block, and two apps
// with keep sets.
func TestRankersMatchReferenceOnEdgeCases(t *testing.T) {
	a := newEdgeApp()
	third := func(vp pagetable.VPage) bool { return vp%3 == 0 }
	// Chunk 0: pages 0-199 mapped, 0-149 tracked with repeating heats
	// (ties), 150-199 untracked; 300-310 tracked but never mapped.
	a.mapRange(t, 0, 200, third)
	for vp := pagetable.VPage(0); vp < 150; vp++ {
		a.record(vp, int(vp%4), int(vp%3))
	}
	for vp := pagetable.VPage(300); vp < 311; vp++ {
		a.record(vp, 2, 1)
	}
	// Pages 600-700 are past chunk 0's head cells, which stay unallocated.
	a.mapRange(t, 600, 700, third)
	// Chunk 1 (pages 4096-8191) is mapped but never recorded.
	a.mapRange(t, 5000, 5100, func(vp pagetable.VPage) bool { return vp%2 == 0 })
	// A far chunk, grown past its head, in a later directory block.
	far := pagetable.VPage(1<<21 + 1000)
	a.mapRange(t, far, far+130, third)
	for vp := far; vp < far+130; vp += 2 {
		a.record(vp, 1, int(vp%2))
	}
	var c rankCounts
	checkApp(t, "recorded", a.App, &c)
	// Decay evicts the lightest pages, leaving dead cells in live words.
	for e := 0; e < 11; e++ {
		a.Profiler.EndEpoch()
		a.record(5, 40, 1)
		checkApp(t, "decayed", a.App, &c)
	}
	if c.cold == 0 || c.slow == 0 {
		t.Fatalf("a ranker never selected a page: %+v", c)
	}

	// Two apps with keep sets, one keep set shorter than the app list.
	sys := rankSystem(system.NullPolicy{})
	for e := 0; e < 3; e++ {
		sys.RunEpoch()
	}
	apps := sys.StartedApps()
	keep := make([]policy.PageSet, 2)
	for i, a := range apps[:2] {
		k := 0
		rangeFast(a, func(vp pagetable.VPage) {
			if k++; k%(i+3) == 0 {
				keep[i].Add(vp)
			}
		})
	}
	checkGlobal(t, "keep", sys, keep, &c)
	checkGlobal(t, "short keep", sys, keep[:1], &c)
}

// TestRankersAllocateNothing pins the three rankers' steady state: once
// their selection buffers have grown, a ranking allocates nothing.
func TestRankersAllocateNothing(t *testing.T) {
	sys := rankSystem(core.New(core.Options{}))
	for e := 0; e < 3; e++ {
		sys.RunEpoch()
	}
	var b policy.RankBuf
	keep := make([]policy.PageSet, 1)
	keep[0].Add(0)
	apps := sys.StartedApps()
	rank := func() {
		for _, a := range apps {
			b.ColdestFastPages(a, 64)
			b.SlowPagesWithHeat(a, 64)
		}
		b.GlobalColdestFastPages(sys, 64, keep)
	}
	rank()
	for name, fn := range map[string]func(){
		"ColdestFastPages":       func() { b.ColdestFastPages(apps[0], 64) },
		"SlowPagesWithHeat":      func() { b.SlowPagesWithHeat(apps[1], 64) },
		"GlobalColdestFastPages": func() { b.GlobalColdestFastPages(sys, 64, keep) },
	} {
		if a := testing.AllocsPerRun(20, fn); a != 0 {
			t.Errorf("%s: %v allocs/run in steady state", name, a)
		}
	}
}
