package policy

import (
	"cmp"
	"slices"
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// colo builds a small LC+BE co-location under the given policy: a modest
// open-loop Zipfian service next to a high-intensity streaming scanner.
func colo(t *testing.T, pol system.Tiering, fastPages int) *system.System {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = fastPages
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 15
	return system.New(system.Config{
		Machine: mcfg,
		Apps: []workload.AppConfig{
			{
				Name: "lc", Class: workload.LC, Threads: 2, RSSPages: 3000,
				SharedFraction: 0.9, ComputeNs: 100 * sim.Nanosecond,
				OpsPerSec: 1e5,
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewKeyValue(p, rng)
				},
			},
			{
				Name: "be", Class: workload.BE, Threads: 2, RSSPages: 6000,
				SharedFraction: 0.9, ComputeNs: 25 * sim.Nanosecond,
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewMLTrain(p, rng)
				},
			},
		},
		Policy:           pol,
		EpochLength:      20 * sim.Millisecond,
		SamplesPerThread: 800,
		Seed:             5,
		// Policy tests isolate placement logic from THP TLB-coverage
		// effects (at micro scale a handful of splits erase all huge
		// mappings, drowning the placement signal).
		DisableTHP: true,
	})
}

func TestTPPPromotesAndStalls(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 1024)
	before := func() float64 {
		sys.RunEpoch()
		return sys.App("lc").NormalizedPerf().Mean()
	}()
	_ = before
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	// Hint faults must have found and promoted hot pages.
	if lc.FTHR() <= 0 {
		t.Fatal("TPP never promoted anything for the LC app")
	}
	// The hint-fault profiler is in use.
	if lc.Profiler.Name() != "hintfault" {
		t.Fatalf("TPP profiler = %q", lc.Profiler.Name())
	}
}

func TestTPPWatermarkDemotion(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 512) // small fast tier forces reclaim
	for i := 0; i < 20; i++ {
		sys.RunEpoch()
	}
	// Under sustained pressure kswapd must be actively reclaiming: pages
	// flow down even as promotions refill the tier.
	demoted := uint64(0)
	for _, a := range sys.StartedApps() {
		st := a.Async.Stats()
		demoted += st.Moved + st.Remapped
	}
	if demoted == 0 {
		t.Fatal("TPP reclaim never demoted a page despite a full fast tier")
	}
}

func TestTPPPlacement(t *testing.T) {
	pol := NewTPP()
	sys := colo(t, pol, 512)
	sys.RunEpoch()
	// First-touch under TPP prefers the fast tier until watermark.
	if sys.Tiers().Fast().Used() == 0 {
		t.Fatal("TPP placement never used the fast tier")
	}
}

func TestMemtisUsesPEBSAndMigrates(t *testing.T) {
	pol := NewMemtis()
	sys := colo(t, pol, 1024)
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	if lc.Profiler.Name() != "pebs" {
		t.Fatalf("Memtis profiler = %q", lc.Profiler.Name())
	}
	moved := lc.Async.Stats().Moved + sys.App("be").Async.Stats().Moved
	if moved == 0 {
		t.Fatal("Memtis never migrated a page")
	}
}

func TestMemtisColdPageDilemma(t *testing.T) {
	// Under Memtis's absolute-frequency ranking, the streaming BE app
	// squeezes the LC app's fast share far below its even split; Vulcan's
	// premise (Observation #1) must reproduce at micro scale.
	sys := colo(t, NewMemtis(), 1024)
	for i := 0; i < 60; i++ {
		sys.RunEpoch()
	}
	lc, be := sys.App("lc"), sys.App("be")
	if lc.FastPages() >= be.FastPages() {
		t.Fatalf("no dilemma: LC fast=%d >= BE fast=%d", lc.FastPages(), be.FastPages())
	}
	if lc.FastPages() > 1024/3 {
		t.Fatalf("LC kept %d fast pages, expected starvation below even share", lc.FastPages())
	}
}

func TestNomadSheddingIsAsyncWithShadowing(t *testing.T) {
	pol := NewNomad()
	sys := colo(t, pol, 1024)
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
	}
	if !sys.Mechanisms().Shadowing {
		t.Fatal("Nomad must declare shadowing")
	}
	lc := sys.App("lc")
	if lc.Profiler.Name() != "hintfault" {
		t.Fatalf("Nomad profiler = %q", lc.Profiler.Name())
	}
	st := lc.Engine.Shadows()
	if st.Live+int(st.Consumed+st.Dropped) == 0 {
		t.Fatal("Nomad never created a shadow copy")
	}
}

func TestPolicyCharacters(t *testing.T) {
	// Each baseline's signature behaviour at micro scale. First-touch
	// hands the whole fast tier to the LC app (admitted first).
	run := func(pol system.Tiering) (lc, be float64) {
		sys := colo(t, pol, 1024)
		for i := 0; i < 40; i++ {
			sys.RunEpoch()
		}
		return sys.App("lc").NormalizedPerf().Mean(),
			sys.App("be").NormalizedPerf().Mean()
	}
	staticLC, staticBE := run(system.NullPolicy{})

	// Memtis's capacity ranking reassigns the tier to the high-intensity
	// scanner: BE improves, LC pays (the cold-page dilemma).
	memtisLC, memtisBE := run(NewMemtis())
	if memtisBE <= staticBE {
		t.Errorf("memtis BE %v not better than static %v", memtisBE, staticBE)
	}
	if memtisLC >= staticLC {
		t.Errorf("memtis LC %v did not degrade from static %v (no dilemma)", memtisLC, staticLC)
	}

	// TPP and Nomad promote on recency per app with no global ranking:
	// the incumbent LC keeps its hot set resident (grab-and-hold), so LC
	// must not degrade materially versus static.
	for name, pol := range map[string]system.Tiering{
		"tpp":   NewTPP(),
		"nomad": NewNomad(),
	} {
		lc, _ := run(pol)
		if lc < staticLC*0.95 {
			t.Errorf("%s LC perf %v degraded below static %v", name, lc, staticLC)
		}
	}
}

// refPage is one page of the tests' full-sort reference rankings.
type refPage struct {
	app  *system.App
	vp   pagetable.VPage
	heat float64
}

// refOrder orders reference pages by heat (descending when desc), then
// app index, then page number: the composite order Memtis's selections
// must reproduce, here by comparison sort.
func refOrder(desc bool) func(x, y refPage) int {
	return func(x, y refPage) int {
		if x.heat != y.heat {
			if (x.heat > y.heat) == desc {
				return -1
			}
			return 1
		}
		if x.app.Index != y.app.Index {
			return x.app.Index - y.app.Index
		}
		return cmp.Compare(x.vp, y.vp)
	}
}

// refRanking is every profiled page of every started app, hottest first
// by intensity-weighted heat.
func refRanking(sys *system.System) []refPage {
	var all []refPage
	for _, a := range sys.StartedApps() {
		for _, ph := range a.Profiler.HeatPages() {
			all = append(all, refPage{a, ph.VP, ph.Heat * a.SampleWeight()})
		}
	}
	slices.SortFunc(all, refOrder(true))
	return all
}

// memtisRef is what Memtis decides in one epoch.
type memtisRef struct {
	hot     map[int]int // hot-set size by app index
	promote []GlobalPage
	victims []GlobalPage
}

// memtisReference recomputes one Memtis epoch's decisions the way the
// policy first did: fully sort every profiled page, take the first
// target as the hot set, promote its slow pages in rank order, and
// demote the coldest fast pages outside it, by a second full sort.
func memtisReference(sys *system.System) memtisRef {
	ref := memtisRef{hot: map[int]int{}}
	hot := map[GlobalPage]bool{}
	ranking := refRanking(sys)
	target := int(float64(sys.Tiers().Fast().Capacity()) * (1 - headroom))
	hotInFast := 0
	for _, rp := range ranking[:min(target, len(ranking))] {
		hot[GlobalPage{rp.app, rp.vp}] = true
		ref.hot[rp.app.Index]++
		if p, ok := rp.app.Table.Lookup(rp.vp); ok {
			if p.Frame().Tier == mem.TierFast {
				hotInFast++
			} else if len(ref.promote) < maxMovesPerEpoch {
				ref.promote = append(ref.promote, GlobalPage{rp.app, rp.vp})
			}
		}
	}
	var cold []refPage
	for _, a := range sys.StartedApps() {
		a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
			if p.Frame().Tier == mem.TierFast && !hot[GlobalPage{a, vp}] {
				cold = append(cold, refPage{a, vp, a.Profiler.Heat(vp) * a.SampleWeight()})
			}
			return true
		})
	}
	slices.SortFunc(cold, refOrder(false))
	n := min(sys.Tiers().Fast().Used()-hotInFast, maxMovesPerEpoch)
	for _, rp := range cold[:max(0, min(n, len(cold)))] {
		ref.victims = append(ref.victims, GlobalPage{rp.app, rp.vp})
	}
	return ref
}

// checkedMemtis runs Memtis and compares every epoch's decisions with
// the full-sort reference computed from the same state.
type checkedMemtis struct {
	*Memtis
	t                 *testing.T
	promoted, demoted int
}

func (c *checkedMemtis) EndEpoch(sys *system.System) {
	want := memtisReference(sys)
	c.Memtis.EndEpoch(sys)
	for _, a := range sys.StartedApps() {
		if got := c.hot[a.Index].Len(); got != want.hot[a.Index] {
			c.t.Fatalf("epoch %d app %s: %d hot pages, reference %d", sys.Epoch(), a.Name(), got, want.hot[a.Index])
		}
	}
	if !slices.Equal(c.promote, want.promote) {
		c.t.Fatalf("epoch %d: promotion order diverges from the reference (%d vs %d picks)", sys.Epoch(), len(c.promote), len(want.promote))
	}
	if !slices.Equal(c.victims, want.victims) {
		c.t.Fatalf("epoch %d: victims diverge from the reference (%d vs %d picks)", sys.Epoch(), len(c.victims), len(want.victims))
	}
	c.promoted += len(c.promote)
	c.demoted += len(c.victims)
}

// memtisSystem is a three-app co-location whose fast tier holds a
// tenth of the RSS.
func memtisSystem(pol system.Tiering) *system.System {
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 1024
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
		Seed:             11,
		DisableTHP:       true,
	})
}

// fig8System is Fig 8's large-working-set cell at the figure's scale 8
// (internal/figures builds it from ColocationMachine(8) and
// SamplesForScale(8)): one NomadMicro tenant whose working set is twice
// the fast tier, inside an RSS four times it.
func fig8System(pol system.Tiering) *system.System {
	mcfg := machine.DefaultConfig()
	mcfg.Tiers[mem.TierFast].CapacityPages /= 8
	mcfg.Tiers[mem.TierSlow].CapacityPages /= 8
	fast := mcfg.Tiers[mem.TierFast].CapacityPages
	return system.New(system.Config{
		Machine:          mcfg,
		Apps:             []workload.AppConfig{workload.NomadMicroConfig("micro", fast*4, fast*2, 0.5)},
		Policy:           pol,
		Seed:             1,
		SamplesPerThread: 800,
	})
}

// TestMemtisMatchesFullSortReference pins Memtis's selections to the
// full sort they replace: over 20 epochs of a three-app system and of
// Fig 8's large working set, the hot counts, the promotion order and
// the victims are identical.
func TestMemtisMatchesFullSortReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(system.Tiering) *system.System
	}{
		{"colocation", memtisSystem},
		{"fig8", fig8System},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pol := &checkedMemtis{Memtis: NewMemtis(), t: t}
			sys := tc.build(pol)
			for i := 0; i < 20; i++ {
				sys.RunEpoch()
			}
			if pol.promoted == 0 || pol.demoted == 0 {
				t.Fatalf("test did not exercise both paths: %d promotions, %d victims", pol.promoted, pol.demoted)
			}
		})
	}
}

func TestMergedRankingWeightsByIntensity(t *testing.T) {
	sys := colo(t, NewMemtis(), 1024)
	for i := 0; i < 5; i++ {
		sys.RunEpoch()
	}
	// Memtis's hot set is this ranking's prefix
	// (TestMemtisMatchesFullSortReference), so the weighting shows here.
	ranking := refRanking(sys)
	if len(ranking) == 0 {
		t.Fatal("empty merged ranking")
	}
	// The high-intensity BE app must dominate the head of the ranking.
	beAtHead := 0
	for _, rp := range ranking[:min(len(ranking), 100)] {
		if rp.app.Name() == "be" {
			beAtHead++
		}
	}
	if beAtHead < 60 {
		t.Fatalf("BE pages at ranking head = %d/100, expected dominance", beAtHead)
	}
}

func TestColdestFastPagesOrdering(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 1024)
	sys.RunEpoch()
	lc := sys.App("lc")
	var b RankBuf
	cold := b.ColdestFastPages(lc, 10)
	if len(cold) != 10 {
		t.Fatalf("got %d victims", len(cold))
	}
	prev := -1.0
	for _, vp := range cold {
		h := lc.Profiler.Heat(vp)
		if h < prev {
			t.Fatal("victims not in ascending heat order")
		}
		prev = h
		p, ok := lc.Table.Lookup(vp)
		if !ok || p.Frame().Tier != mem.TierFast {
			t.Fatal("victim not fast-resident")
		}
	}
}

func TestGlobalColdestSkipsKeepAndOrders(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 1024)
	sys.RunEpoch()
	var b RankBuf
	victims := b.GlobalColdestFastPages(sys, 50, nil)
	if len(victims) != 50 {
		t.Fatalf("got %d global victims", len(victims))
	}
	for _, v := range victims {
		p, ok := v.App.Table.Lookup(v.VP)
		if !ok || p.Frame().Tier != mem.TierFast {
			t.Fatal("global victim not fast-resident")
		}
	}
	// Keep-sets, indexed by app, are honored.
	first := victims[0]
	keep := make([]PageSet, first.App.Index+1)
	keep[first.App.Index].Add(first.VP)
	for _, v := range b.GlobalColdestFastPages(sys, 50, keep) {
		if v == first {
			t.Fatal("kept page selected as victim")
		}
	}
	if b.GlobalColdestFastPages(sys, 0, nil) != nil {
		t.Fatal("n=0 returned victims")
	}
}

func TestMoveBuilders(t *testing.T) {
	var b RankBuf
	vps := []pagetable.VPage{1, 2, 3}
	for i, mv := range b.PromoteMoves(vps) {
		if mv.VP != vps[i] || mv.To != mem.TierFast {
			t.Fatal("PromoteMoves wrong")
		}
	}
	// The buffer is reused: a shorter second call sees only its own pages.
	if got := b.PromoteMoves(vps[:1]); len(got) != 1 || got[0].VP != 1 {
		t.Fatalf("PromoteMoves reuse: %+v", got)
	}
}

func TestSlowPagesWithHeatLimit(t *testing.T) {
	sys := colo(t, system.NullPolicy{}, 64) // tiny fast: most pages slow
	for i := 0; i < 3; i++ {
		sys.RunEpoch()
	}
	be := sys.App("be")
	var b RankBuf
	pages := b.SlowPagesWithHeat(be, 5)
	if len(pages) > 5 {
		t.Fatalf("limit ignored: %d", len(pages))
	}
	for _, vp := range pages {
		p, _ := be.Table.Lookup(vp)
		if p.Frame().Tier != mem.TierSlow {
			t.Fatal("candidate not slow-resident")
		}
		if be.Profiler.Heat(vp) <= 0 {
			t.Fatal("candidate has no heat")
		}
	}
}
