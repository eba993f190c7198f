package workload_test

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// TestTinyRegionsRejectedOrRun builds an app for every generator kind
// whose shared region, or whose per-thread private slice, is 1..4 pages.
// AppConfig.Check must either reject it or the app must draw only
// in-range pages and run one epoch.
func TestTinyRegionsRejectedOrRun(t *testing.T) {
	gens := map[string]workload.GenFactory{
		"uniform": func(p int, rng *sim.RNG) workload.Generator { return workload.NewUniform(p, 0.1, 0.1, rng) },
		"zipf":    func(p int, rng *sim.RNG) workload.Generator { return workload.NewZipfian(p, 0.99, 0.1, 0.1, rng) },
		"scan":    func(p int, rng *sim.RNG) workload.Generator { return workload.NewScan(p, 0.1, 0.1, rng) },
		"keyvalue": func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewKeyValue(p, rng)
		},
		"graph":     func(p int, rng *sim.RNG) workload.Generator { return workload.NewGraphWalk(p, rng) },
		"mltrain":   func(p int, rng *sim.RNG) workload.Generator { return workload.NewMLTrain(p, rng) },
		"webserver": func(p int, rng *sim.RNG) workload.Generator { return workload.NewWebServer(p, rng) },
		"micro": func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewNomadMicro(p, min(p, 2), 0.5, rng)
		},
	}
	mc := machine.DefaultConfig()
	mc.Cores = 4
	mc.Tiers[mem.TierFast].CapacityPages = 16
	mc.Tiers[mem.TierSlow].CapacityPages = 64
	for kind, gen := range gens {
		for n := 1; n <= 4; n++ {
			for _, layout := range []struct {
				name       string
				rss        int
				sharedFrac float64
			}{
				// One thread sharing an n-page region.
				{"shared", n, 1},
				// A 4-page shared region and one n-page private slice:
				// int((4+n) * 4.5/(4+n)) = 4.
				{"private", 4 + n, 4.5 / float64(4+n)},
			} {
				cfg := workload.AppConfig{
					Name: kind, Class: workload.BE, Threads: 1,
					RSSPages: layout.rss, SharedFraction: layout.sharedFrac,
					ComputeNs: 100 * sim.Nanosecond, NewGen: gen,
				}
				if cfg.Check() != nil {
					continue
				}
				for _, th := range workload.BuildThreads(cfg, sim.NewRNG(7)) {
					for i := 0; i < 2000; i++ {
						if p := th.Next().Page; p < 0 || p >= cfg.RSSPages {
							t.Fatalf("%s %s n=%d: page %d outside %d-page app", kind, layout.name, n, p, cfg.RSSPages)
						}
					}
				}
				sys := system.New(system.Config{
					Machine: mc, Apps: []workload.AppConfig{cfg}, EpochLength: sim.Millisecond,
				})
				sys.RunEpoch()
			}
		}
	}
}
