package policy

import (
	"vulcan/internal/mem"
	"vulcan/internal/profile"
	"vulcan/internal/system"
)

// TPP reimplements Transparent Page Placement (Maruf et al., ASPLOS'23)
// on the simulated substrate:
//
//   - Profiling by NUMA hinting faults: a rotating window of PTEs is
//     poisoned; the next touch faults, revealing recency.
//   - Promotion is synchronous and on the critical path: a slow-tier page
//     that hint-faults is migrated immediately, stalling the faulting
//     application (the paper's "TPP's page promotion" in §2.1).
//   - Demotion is reactive: when fast-tier free pages fall below the low
//     watermark, a kswapd-like background pass demotes the coldest fast
//     pages (globally, with no notion of per-app fairness) until the high
//     watermark is restored.
type TPP struct {
	// rank holds reusable per-epoch ranking buffers.
	rank RankBuf
}

// TPP's tuning, mirroring kernel tunables.
const (
	// tppPromoteLimit bounds synchronous promotions per app per epoch
	// (Linux's NUMA-balancing rate limit).
	tppPromoteLimit = 1024
	// tppHintWindowPages is the per-epoch poison window per app.
	tppHintWindowPages = 8192
	// kswapdBudget is background demotion CPU per epoch, in multiples of
	// one core's epoch cycles.
	kswapdBudget float64 = 1.0
)

// NewTPP returns TPP.
func NewTPP() *TPP { return &TPP{} }

// Name implements system.Tiering.
func (t *TPP) Name() string { return "tpp" }

// Mechanisms implements system.Tiering: TPP uses stock kernel migration.
func (t *TPP) Mechanisms() system.Mechanisms { return system.Mechanisms{} }

// NewProfiler implements system.ProfilerFactory: NUMA hinting faults.
func (t *TPP) NewProfiler(app *system.App) profile.Profiler {
	return profile.NewHintFault(app.Table, tppHintWindowPages, app.CostModel().HintFaultCycles)
}

// AppStarted implements system.Tiering.
func (t *TPP) AppStarted(*system.System, *system.App) {}

// Place implements system.Placer: TPP allocates new pages to the fast
// tier while it has headroom.
func (t *TPP) Place(sys *system.System, app *system.App) mem.TierID {
	if FreeFastFraction(sys) > lowWatermark {
		return mem.TierFast
	}
	return mem.TierSlow
}

// EndEpoch implements system.Tiering.
func (t *TPP) EndEpoch(sys *system.System) {
	apps := sys.StartedApps()

	// Background demotion first: restore the high watermark by demoting
	// the globally coldest fast pages, apportioned by fast-tier usage.
	if FreeFastFraction(sys) < lowWatermark {
		fast := sys.Tiers().Fast()
		need := int(highWatermark*float64(fast.Capacity())) - fast.FreePages()
		if need > 0 {
			// kswapd reclaims from the node's global LRU: coldest pages
			// go regardless of owner.
			EnqueueVictims(t.rank.GlobalColdestFastPages(sys, need, nil))
			budget := kswapdBudget * sys.EpochCycles()
			for _, a := range apps {
				a.Async.RunEpoch(budget/float64(len(apps)), a.WriteProbability)
			}
		}
	}

	// Synchronous hint-fault promotion, charged to the faulting app.
	for _, a := range apps {
		candidates := t.rank.SlowPagesWithHeat(a, tppPromoteLimit)
		if len(candidates) == 0 {
			continue
		}
		res := a.Engine.MigrateSync(t.rank.PromoteMoves(candidates))
		a.ChargeStall(res.Cycles())
	}
}
