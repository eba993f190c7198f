package core

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// vulcanColo builds a micro LC+BE co-location under the given policy.
func vulcanColo(t *testing.T, pol system.Tiering, fastPages int, seed uint64) *system.System {
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
		Seed:             seed,
	})
}

func TestVulcanDeclaresAllMechanisms(t *testing.T) {
	v := New(Options{})
	m := v.Mechanisms()
	if !m.OptimizedPrep || !m.TargetedShootdown || !m.Shadowing {
		t.Fatalf("full Vulcan mechanisms = %+v", m)
	}
	ablated := New(Options{
		DisablePerThreadPT:   true,
		DisableOptimizedPrep: true,
		DisableShadowing:     true,
	})
	m = ablated.Mechanisms()
	if m.OptimizedPrep || m.TargetedShootdown || m.Shadowing {
		t.Fatalf("ablated mechanisms = %+v", m)
	}
}

func TestVulcanProtectsLCWorkload(t *testing.T) {
	// Vulcan's GPT guarantee must keep the LC app's hit ratio healthy
	// even though the BE scanner's absolute access rate dwarfs it —
	// precisely the case where Memtis starves it.
	sys := vulcanColo(t, New(Options{}), 1024, 7)
	for i := 0; i < 60; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	if lc.FTHR() < 0.3 {
		t.Fatalf("LC FTHR = %v under Vulcan, want protection", lc.FTHR())
	}
	if lc.FastPages() == 0 {
		t.Fatal("LC fully evicted from fast tier")
	}
}

func TestVulcanQuotaEnforcement(t *testing.T) {
	v := New(Options{})
	sys := vulcanColo(t, v, 1024, 9)
	for i := 0; i < 50; i++ {
		sys.RunEpoch()
	}
	// Residency must track the CBFRP quotas (within async-lag slack).
	for _, st := range v.QoS().States() {
		fast := st.App.FastPages()
		if fast > st.Alloc+256 {
			t.Errorf("%s holds %d fast pages, quota %d", st.App.Name(), fast, st.Alloc)
		}
	}
	// And total allocation respects capacity.
	total := 0
	for _, st := range v.QoS().States() {
		total += st.Alloc
	}
	if total > 1024 {
		t.Fatalf("quotas sum to %d > capacity", total)
	}
}

func TestVulcanFairerThanMemtisStyleStarvation(t *testing.T) {
	// Fairness (Jain over FTHR-weighted cumulative allocation) under
	// Vulcan must clearly beat a policy that starves the LC app. We
	// compare against static first-touch, which gives everything to the
	// first app (CFI -> 1/n).
	run := func(pol system.Tiering) float64 {
		sys := vulcanColo(t, pol, 1024, 11)
		for i := 0; i < 60; i++ {
			sys.RunEpoch()
		}
		return sys.CFI().Index()
	}
	vulcanCFI := run(New(Options{}))
	staticCFI := run(system.NullPolicy{})
	if vulcanCFI <= staticCFI {
		t.Fatalf("Vulcan CFI %v not better than static %v", vulcanCFI, staticCFI)
	}
	if vulcanCFI < 0.55 {
		t.Fatalf("Vulcan CFI = %v, want meaningful fairness", vulcanCFI)
	}
}

func TestVulcanProbeShrinkDonatesExcess(t *testing.T) {
	// The LC app's hot set is far below its even share; probe-shrink must
	// release the excess to the scanner instead of hoarding entitlement.
	v := New(Options{})
	sys := vulcanColo(t, v, 2048, 13) // even share 1024 >> LC hot set (~330)
	for i := 0; i < 80; i++ {
		sys.RunEpoch()
	}
	lc := sys.App("lc")
	be := sys.App("be")
	if lc.FastPages() >= 1024 {
		t.Fatalf("LC still holds %d >= even share; probe-shrink inert", lc.FastPages())
	}
	if lc.FTHR() < 0.3 {
		t.Fatalf("probe-shrink overshot: LC FTHR %v", lc.FTHR())
	}
	if be.FastPages() <= 1024 {
		t.Fatalf("BE never received donated pages: %d", be.FastPages())
	}
}

func TestVulcanPlaceRespectsQuota(t *testing.T) {
	v := New(Options{})
	sys := vulcanColo(t, v, 1024, 15)
	sys.RunEpoch()
	// With two apps the first premap may take at most the provisional
	// even share (cap/1 for the first app before the second registers,
	// but enforcement pulls it back); after some epochs no app may hold
	// essentially the whole tier.
	for i := 0; i < 20; i++ {
		sys.RunEpoch()
	}
	for _, a := range sys.StartedApps() {
		if a.FastPages() > 1024*9/10 {
			t.Fatalf("%s monopolizes the fast tier: %d/1024", a.Name(), a.FastPages())
		}
	}
}

func TestVulcanAblationsRun(t *testing.T) {
	// Every ablation configuration must run to completion and keep the
	// frame-conservation invariant.
	opts := []Options{
		{DisableCBFRP: true},
		{DisableMLFQ: true},
		{DisableBiasedQueues: true},
		{DisablePerThreadPT: true},
		{DisableOptimizedPrep: true},
		{DisableShadowing: true},
	}
	for i, o := range opts {
		sys := vulcanColo(t, New(o), 512, uint64(20+i))
		for e := 0; e < 15; e++ {
			sys.RunEpoch()
		}
		fast := sys.Tiers().Fast()
		if fast.Used()+fast.FreePages() != fast.Capacity() {
			t.Fatalf("ablation %d leaked fast frames", i)
		}
		slow := sys.Tiers().Slow()
		if slow.Used()+slow.FreePages() != slow.Capacity() {
			t.Fatalf("ablation %d leaked slow frames", i)
		}
	}
}

func TestVulcanUniformVsCBFRP(t *testing.T) {
	// CBFRP must not be worse than the uniform straw man on fairness.
	run := func(o Options) float64 {
		sys := vulcanColo(t, New(o), 1024, 31)
		for i := 0; i < 50; i++ {
			sys.RunEpoch()
		}
		x := make([]float64, 0, 2)
		for _, a := range sys.Apps() {
			x = append(x, float64(a.FastPages())*a.FTHR())
		}
		return metrics.JainIndex(x)
	}
	cbfrp := run(Options{})
	uniform := run(Options{DisableCBFRP: true})
	if cbfrp < uniform*0.9 {
		t.Fatalf("CBFRP fairness %v well below uniform %v", cbfrp, uniform)
	}
}

func TestVulcanUsesHybridProfilerPerClass(t *testing.T) {
	v := New(Options{})
	sys := vulcanColo(t, v, 512, 41)
	sys.RunEpoch()
	for _, a := range sys.StartedApps() {
		if a.Profiler.Name() != "hybrid" {
			t.Fatalf("%s profiler = %q", a.Name(), a.Profiler.Name())
		}
	}
}

func TestVulcanStaggeredArrivalRebalances(t *testing.T) {
	// A late-arriving workload must receive fast memory via CBFRP even
	// though the incumbent premapped the whole tier (the Figure 9
	// dynamic).
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 1024
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 15
	v := New(Options{})
	sys := system.New(system.Config{
		Machine: mcfg,
		Apps: []workload.AppConfig{
			{
				Name: "first", Class: workload.BE, Threads: 2, RSSPages: 4000,
				SharedFraction: 0.9, ComputeNs: 50 * sim.Nanosecond,
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewZipfian(p, 0.99, 0.1, 0.1, rng)
				},
			},
			{
				Name: "late", Class: workload.LC, Threads: 2, RSSPages: 3000,
				SharedFraction: 0.9, ComputeNs: 100 * sim.Nanosecond,
				OpsPerSec: 1e5,
				StartAt:   sim.Time(200 * sim.Millisecond),
				NewGen: func(p int, rng *sim.RNG) workload.Generator {
					return workload.NewKeyValue(p, rng)
				},
			},
		},
		Policy:           v,
		EpochLength:      20 * sim.Millisecond,
		SamplesPerThread: 800,
		Seed:             17,
	})
	sys.Run(200 * sim.Millisecond)
	if sys.App("late").Started() {
		t.Fatal("late app started early")
	}
	first := sys.App("first").FastPages()
	if first < 900 {
		t.Fatalf("incumbent holds only %d fast pages before arrival", first)
	}
	sys.Run(800 * sim.Millisecond)
	late := sys.App("late")
	if !late.Started() {
		t.Fatal("late app never started")
	}
	if late.FastPages() < 200 {
		t.Fatalf("late LC app received only %d fast pages", late.FastPages())
	}
	if sys.App("first").FastPages() >= first {
		t.Fatal("incumbent never released fast memory")
	}
}
