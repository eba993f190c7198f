package policy

import (
	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/profile"
	"vulcan/internal/system"
)

// Nomad reimplements the policy core of Nomad (Xiang et al., OSDI'24):
// non-exclusive memory tiering via transactional page migration.
//
//   - Promotion candidates come from NUMA-hint-style recency signals
//     (Nomad builds on the kernel's NUMA balancing), like TPP — but
//     migration is moved *completely off the critical path*: candidates
//     are enqueued and copied asynchronously; a page written during its
//     copy window aborts the transaction and is retried later.
//   - Page shadowing keeps the slow-tier copy of a promoted page, so
//     demoting a still-clean page is a remap, not a copy.
//   - Demotion is watermark-driven like TPP's reclaim.
//
// Nomad fixes migration overhead but inherits hotness-only, fairness-blind
// placement — which is why it shares the cold-page dilemma.
type Nomad struct {
	// rank holds reusable per-epoch ranking buffers.
	rank RankBuf
}

// Nomad's representative tuning. With migration cost off the critical
// path, nothing throttles promotion: every recently touched slow page is
// a candidate, so high-intensity streaming workloads flood the fast tier
// harder than under TPP's rate-limited synchronous promotion — which is
// why Nomad is the least fair of the baselines.
const (
	nomadPromoteLimit    = 32768
	nomadHintWindowPages = 24576
	// migratorBudget is the async migration thread budget per epoch, in
	// multiples of one core's epoch cycles.
	migratorBudget float64 = 2.0
)

// NewNomad returns Nomad.
func NewNomad() *Nomad { return &Nomad{} }

// Name implements system.Tiering.
func (n *Nomad) Name() string { return "nomad" }

// Mechanisms implements system.Tiering: Nomad contributes page shadowing
// (its "page shadowing" technique) but keeps kernel prep and process-wide
// shootdowns.
func (n *Nomad) Mechanisms() system.Mechanisms {
	return system.Mechanisms{Shadowing: true}
}

// NewProfiler implements system.ProfilerFactory.
func (n *Nomad) NewProfiler(app *system.App) profile.Profiler {
	return profile.NewHintFault(app.Table, nomadHintWindowPages, app.CostModel().HintFaultCycles)
}

// AppStarted implements system.Tiering.
func (n *Nomad) AppStarted(*system.System, *system.App) {}

// EndEpoch implements system.Tiering.
func (n *Nomad) EndEpoch(sys *system.System) {
	apps := sys.StartedApps()

	// Watermark-driven async demotion (shadow remaps make clean-page
	// demotion nearly free).
	if FreeFastFraction(sys) < lowWatermark {
		fast := sys.Tiers().Fast()
		need := int(highWatermark*float64(fast.Capacity())) - fast.FreePages()
		if need > 0 {
			EnqueueVictims(n.rank.GlobalColdestFastPages(sys, need, nil))
		}
	}

	// Fully asynchronous transactional promotion: enqueue candidates;
	// the migrator thread works through them within budget, aborting
	// copies dirtied in flight.
	for _, a := range apps {
		for _, vp := range n.rank.SlowPagesWithHeat(a, nomadPromoteLimit) {
			a.Async.EnqueueOne(migrate.Move{VP: vp, To: mem.TierFast})
		}
	}
	totalBacklog := 0
	for _, a := range apps {
		totalBacklog += a.Async.Backlog()
	}
	if totalBacklog == 0 {
		return
	}
	budget := migratorBudget * sys.EpochCycles()
	for _, a := range apps {
		share := budget * float64(a.Async.Backlog()) / float64(totalBacklog)
		a.Async.RunEpoch(share, a.WriteProbability)
	}
}
