package policy_test

import (
	"math/bits"
	"testing"

	"vulcan/internal/figures"
	"vulcan/internal/pagetable"
	"vulcan/internal/policy"
	"vulcan/internal/system"
)

// fig10System is Fig 10's three-app co-location at scale 8.
func fig10System(pol system.Tiering) *system.System {
	const scale = 8
	return system.New(system.Config{
		Machine:          figures.ColocationMachine(scale),
		Apps:             figures.Table2Apps(scale, false),
		Policy:           pol,
		Seed:             1,
		SamplesPerThread: figures.SamplesForScale(scale),
	})
}

// TestProfiledPagesAreMapped pins the invariant Memtis's ranking walk
// rests on: every page a profiler tracks is mapped. Under every policy,
// on the rank test system, Fig 10's co-location and Fig 8's large
// working set, after every epoch each started app's Tracked count
// equals the live heat bits of its present page-table words.
func TestProfiledPagesAreMapped(t *testing.T) {
	systems := []struct {
		name   string
		build  func(system.Tiering) *system.System
		epochs int
	}{
		{"rank", rankSystem, 30},
		{"fig10", fig10System, 40},
		{"fig8", policy.Fig8System, 40},
	}
	for _, sc := range systems {
		for _, pol := range figures.PolicyNames {
			t.Run(sc.name+"/"+pol, func(t *testing.T) {
				sys := sc.build(figures.NewPolicy(pol))
				tracked := 0
				for e := 0; e < sc.epochs; e++ {
					sys.RunEpoch()
					for _, a := range sys.StartedApps() {
						live := 0
						a.Table.Words(func(base pagetable.VPage, present, _ uint64) {
							live += bits.OnesCount64(present & a.Profiler.HeatWord(base).Live)
						})
						if n := a.Profiler.Tracked(); n != live {
							t.Fatalf("epoch %d app %s: %d pages tracked, %d of them mapped", sys.Epoch(), a.Name(), n, live)
						}
						tracked += live
					}
				}
				if tracked == 0 {
					t.Fatal("no page was ever tracked")
				}
			})
		}
	}
}
