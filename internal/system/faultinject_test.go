package system

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// adversarialProfiler feeds the policy layer hostile signals: heat for
// pages that do not exist, negative-looking write fractions, enormous
// heats, and snapshots in adversarial order. Policies and the migration
// engine must tolerate all of it without corrupting frame ownership.
type adversarialProfiler struct {
	rng    *sim.RNG
	extent int
}

func (a *adversarialProfiler) Name() string { return "adversarial" }

func (a *adversarialProfiler) Record(profile.Access) float64 { return 0 }

func (a *adversarialProfiler) EndEpoch() profile.EpochReport { return profile.EpochReport{} }

func (a *adversarialProfiler) Heat(vp pagetable.VPage) float64 {
	// Nondeterministic per call: violates any consistency assumption.
	return a.rng.Float64() * 1e12
}

func (a *adversarialProfiler) WriteFraction(pagetable.VPage) float64 {
	return a.rng.Float64()
}

// HeatWord reports every page untracked: the zero word.
func (a *adversarialProfiler) HeatWord(pagetable.VPage) profile.HeatWord { return profile.HeatWord{} }

func (a *adversarialProfiler) HeatSnapshot() []profile.PageHeat {
	out := make([]profile.PageHeat, 0, 256)
	for i := 0; i < 256; i++ {
		out = append(out, profile.PageHeat{
			// Half the candidates point at unmapped or wildly
			// out-of-range pages.
			VP:        pagetable.VPage(a.rng.Intn(a.extent * 2)),
			Heat:      a.rng.Float64() * 1e12,
			WriteFrac: a.rng.Float64(),
		})
	}
	return out
}

func (a *adversarialProfiler) HeatPages() []profile.PageHeat { return a.HeatSnapshot() }

func (a *adversarialProfiler) Tracked() int { return 256 }

// chaosPolicy drives migrations straight from the adversarial snapshots,
// alternating directions, with no sanity checks of its own.
type chaosPolicy struct{}

func (chaosPolicy) Name() string                     { return "chaos" }
func (chaosPolicy) Mechanisms() Mechanisms           { return Mechanisms{Shadowing: true} }
func (chaosPolicy) AppStarted(sys *System, app *App) {}

// NewProfiler implements ProfilerFactory with the adversarial profiler.
func (chaosPolicy) NewProfiler(app *App) profile.Profiler {
	return &adversarialProfiler{rng: app.rng.Fork(), extent: app.Cfg.RSSPages}
}

func (chaosPolicy) EndEpoch(sys *System) {
	for i, a := range sys.StartedApps() {
		snap := a.Profiler.HeatSnapshot()
		for j, ph := range snap {
			to := mem.TierFast
			if (i+j)%2 == 0 {
				to = mem.TierSlow
			}
			a.Async.EnqueueOne(migrate.Move{VP: ph.VP, To: to})
		}
		a.Async.RunEpoch(sys.EpochCycles(), a.WriteProbability)
		// Also hammer the sync path with the hottest claims.
		if len(snap) > 8 {
			var moves []migrate.Move
			for _, ph := range snap[:8] {
				moves = append(moves, migrate.Move{VP: ph.VP, To: mem.TierFast})
			}
			a.Engine.MigrateSync(moves)
		}
	}
}

func TestAdversarialProfilerDoesNotCorruptState(t *testing.T) {
	sys := New(Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("a", workload.LC, 1500, 0),
			tinyApp("b", workload.BE, 1500, 0),
		},
		EpochLength: 10 * sim.Millisecond,
		Policy:      chaosPolicy{},
		Seed:        13,
	})
	for i := 0; i < 25; i++ {
		sys.RunEpoch()
		if rep := sys.Audit(); !rep.Ok() {
			t.Fatalf("epoch %d: frame ownership corrupted: %v", i, rep.Errors[0])
		}
	}
	// Apps still make progress despite the chaos.
	for _, a := range sys.StartedApps() {
		if a.EpochOps() <= 0 {
			t.Fatalf("%s stopped making progress", a.Name())
		}
	}
}
