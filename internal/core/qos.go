// Package core implements Vulcan, the paper's contribution: a
// workload-aware tiered memory management framework combining
// workload-dependent migration (§3.2), QoS-aware fair resource
// partitioning (§3.3), per-thread page-table replication (§3.4), and the
// biased page migration policy (§3.5). It plugs into internal/system as
// a Tiering policy and drives the same substrate as the baselines.
package core

import (
	"math"

	"vulcan/internal/system"
)

// QoSState is the per-workload controller state of §3.3.
type QoSState struct {
	App *system.App
	// GPT is the guaranteed performance target GPT_i = GFMC/RSS_i,
	// clamped to 1 when the fair share covers the whole working set.
	GPT float64
	// Demand is the fast-memory demand (Eq. 3), in pages.
	Demand int
	// Alloc is the current fast-tier quota assigned by CBFRP, in pages.
	Alloc int
	// Credits is the Karma-style credit balance.
	Credits int

	// initialized marks that CBFRP has seeded this workload's allocation
	// (Algorithm 1 line 2 runs once per workload).
	initialized bool

	// Probe-shrink state: a satisfied workload (FTHR ≥ GPT) donates fast
	// memory it does not need by shrinking its demand in small probes,
	// backing off (and holding) as soon as a probe costs measurable hit
	// ratio. The equilibrium sits just above the workload's hot set.
	lastFTHR   float64
	shrankLast bool
	holdUntil  int
}

// QoSController tracks GPT/FTHR/demand for every admitted workload and
// computes fair allocations via CBFRP.
type QoSController struct {
	states []*QoSState
	byApp  map[*system.App]*QoSState

	// Transfers records the latest CBFRP invocation's quota movements in
	// execution order (reset on each call) — the qos-adapt telemetry
	// feed and a debugging aid for partitioning behavior.
	Transfers []Transfer

	epoch int
}

// Probe-shrink tuning for satisfied workloads (§3.3's efficiency goal:
// reclaim "excessive resources" from workloads that do not need them).
// shrinkFrac of the allocation is probed away per epoch; a probe that
// costs more than shrinkTolerance of FTHR is reverted and the allocation
// held for holdEpochs. A 3% probe over a uniformly hot working set costs
// ~2-3% of its coverage in FTHR; the tolerance must catch that while
// sitting above FTHR sampling noise (~0.7% per epoch after EMA).
const (
	shrinkFrac      float64 = 0.03
	shrinkTolerance float64 = 0.015
	holdEpochs              = 6
)

// NewQoSController returns an empty controller.
func NewQoSController() *QoSController {
	return &QoSController{byApp: make(map[*system.App]*QoSState)}
}

// Register admits a workload; its quota starts at the recomputed even
// share on the next Update.
func (q *QoSController) Register(app *system.App) *QoSState {
	if _, dup := q.byApp[app]; dup {
		panic("core: app registered twice")
	}
	st := &QoSState{App: app}
	q.states = append(q.states, st)
	q.byApp[app] = st
	return st
}

// Unregister removes a stopped workload. The states slice keeps its
// admission order (minus the departed entry), so a resume that
// re-registers the survivors in admission order reconstructs the same
// sequence. Unknown apps are a no-op.
func (q *QoSController) Unregister(app *system.App) {
	if _, ok := q.byApp[app]; !ok {
		return
	}
	delete(q.byApp, app)
	kept := q.states[:0]
	for _, st := range q.states {
		if st.App != app {
			kept = append(kept, st)
		}
	}
	q.states = kept
}

// State returns the controller state for app (nil if unregistered).
func (q *QoSController) State(app *system.App) *QoSState { return q.byApp[app] }

// States returns all registered states in admission order.
func (q *QoSController) States() []*QoSState { return q.states }

// GFMC returns the guaranteed fast memory capacity: the fast tier evenly
// divided among the n registered workloads.
func (q *QoSController) GFMC(fastCapacity int) int {
	if len(q.states) == 0 {
		return fastCapacity
	}
	return fastCapacity / len(q.states)
}

// UpdateDemands recomputes GPT and demand for every workload from current
// FTHR measurements (Eq. 1–3). alloc_i is taken as the app's measured
// fast-tier residency, which is what the demand formula adjusts from.
func (q *QoSController) UpdateDemands(fastCapacity int) {
	gfmc := q.GFMC(fastCapacity)
	denom := q.demandDenom()
	for _, st := range q.states {
		q.updateDemand(st, gfmc, denom)
	}
	q.epoch++
}

// demandDenom is Eq. 3's log² normalizer, computed so the largest
// co-located footprint adjusts at full proportional speed: the
// adjustment for workload i is (GPT−FTHR)·RSS_i·log²₂(rss_i)/log²₂(max_j
// rss_j). This keeps the equation's "proportional to the workload's
// memory footprint" intent while yielding page-unit steps at any
// simulation scale.
func (q *QoSController) demandDenom() float64 {
	maxRSS := 0
	for _, st := range q.states {
		if r := st.App.RSSMapped(); r > maxRSS {
			maxRSS = r
		}
	}
	denom := 1.0
	if maxRSS > 1 {
		l := math.Log2(float64(maxRSS))
		denom = l * l
	}
	return denom
}

// updateDemand recomputes one workload's GPT and demand — the per-state
// body of UpdateDemands, also invoked by incremental rescoring for the
// dirty set alone.
func (q *QoSController) updateDemand(st *QoSState, gfmc int, denom float64) {
	rss := st.App.RSSMapped()
	if rss <= 0 {
		st.GPT, st.Demand = 1, 0
		return
	}
	if gfmc >= rss {
		st.GPT = 1
	} else {
		st.GPT = float64(gfmc) / float64(rss)
	}
	fthr := st.App.FTHR()
	alloc := st.Alloc
	if !st.initialized {
		alloc = st.App.FastPages()
	}

	if fthr >= st.GPT {
		// "The current allocation is deemed sufficient" (§3.3).
		// Anything beyond the fair entitlement is surrendered
		// outright; within the entitlement, probe-shrink donates
		// pages the workload demonstrably does not need, backing off
		// at the hot-set knee.
		st.Demand = q.sufficientDemand(st, alloc, gfmc, fthr)
		st.lastFTHR = fthr
		return
	}
	st.shrankLast = false
	st.lastFTHR = fthr

	// Under-allocated: grow demand by Eq. 3 with normalized log²
	// footprint scaling.
	l := math.Log2(float64(rss))
	adjust := (st.GPT - fthr) * float64(rss) * (l * l) / denom
	demand := alloc + int(adjust)
	if demand < 0 {
		demand = 0
	}
	if demand > rss {
		demand = rss
	}
	st.Demand = demand
}

// sufficientDemand computes the demand of a workload whose FTHR meets its
// GPT: surrender beyond-entitlement holdings, then probe downward while
// the hit ratio tolerates it.
func (q *QoSController) sufficientDemand(st *QoSState, alloc, gfmc int, fthr float64) int {
	if alloc > gfmc {
		st.shrankLast = false
		return gfmc
	}
	step := int(shrinkFrac * float64(alloc))
	if step < 64 {
		step = 64
	}
	if st.shrankLast && fthr < st.lastFTHR-shrinkTolerance {
		// The last probe cost real hit ratio: take it back and hold.
		st.shrankLast = false
		st.holdUntil = q.epoch + holdEpochs
		d := alloc + 2*step
		if d > gfmc {
			d = gfmc
		}
		return d
	}
	if q.epoch < st.holdUntil {
		st.shrankLast = false
		return alloc
	}
	st.shrankLast = true
	d := alloc - step
	if d < 0 {
		d = 0
	}
	return d
}
