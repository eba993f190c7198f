// Package system is the co-location runtime: it binds the simulated
// machine, the co-located applications (each a process with its own
// replicated page table, per-thread TLBs, migration engine and profiler),
// and a pluggable tiering policy, then advances them in epochs.
//
// Each epoch the system (1) simulates a representative sample of memory
// accesses per thread, measuring achieved performance under current page
// placement, (2) lets profilers harvest their signals, and (3) hands
// control to the Tiering policy, which inspects per-app state and issues
// promotions/demotions through each app's migration engine. Sync
// migration stalls and profiling overheads are charged against app time;
// async migration consumes dedicated migration-thread budget.
package system

import (
	"vulcan/internal/mem"
	"vulcan/internal/profile"
)

// Mechanisms selects which of Vulcan's mechanism-level optimizations a
// policy's migration engines run with. Baselines (TPP, Memtis) use none;
// Nomad uses shadowing; Vulcan uses all three.
type Mechanisms struct {
	// OptimizedPrep: per-application LRU drain instead of the kernel's
	// global on_each_cpu synchronization (§3.2).
	OptimizedPrep bool
	// TargetedShootdown: per-thread page tables bound shootdown IPIs to
	// sharing threads (§3.4).
	TargetedShootdown bool
	// Shadowing: retain slow-tier copies of promoted pages for remap-only
	// demotion (§3.5).
	Shadowing bool
}

// Tiering is a pluggable tiered-memory management policy. Implementations
// live in internal/policy (TPP, Memtis, Nomad, static) and internal/core
// (Vulcan).
type Tiering interface {
	// Name identifies the policy in reports.
	Name() string
	// Mechanisms declares the engine-level optimizations the policy's
	// migrations use.
	Mechanisms() Mechanisms
	// AppStarted is invoked once when an application is admitted, before
	// its first epoch (e.g. to size per-app quotas).
	AppStarted(sys *System, app *App)
	// EndEpoch runs after access simulation and profiler harvest; the
	// policy issues migrations here via app.Engine / app.Async and may
	// charge stalls with app.ChargeStall.
	EndEpoch(sys *System)
}

// Rescorer is optionally implemented by policies that can re-evaluate a
// subset of applications between whole-epoch recomputes. When
// Config.IncrementalRescore is set, the system invokes it with the
// dirty set — newly admitted apps, a departing app, an app whose
// intensity changed — right when the change lands, so quotas adjust in
// the same epoch instead of one epoch late. Implementations must only
// rescore the dirty apps (settled tenants keep their allocations) and
// stay deterministic: the dirty slice arrives in admission order.
type Rescorer interface {
	Reevaluate(sys *System, dirty []*App)
}

// ProfilerFactory is optionally implemented by policies that bring their
// own profiling mechanism (TPP: hint faults; Memtis: PEBS; Vulcan:
// hybrid). Without it the system default applies.
type ProfilerFactory interface {
	NewProfiler(app *App) profile.Profiler
}

// Placer is optionally implemented by policies that control where a
// page's first-touch allocation lands. Without it the system allocates
// fast-first with slow fallback (Linux default).
type Placer interface {
	// Place returns the tier for a new page of app. Returning an invalid
	// tier falls back to the default placement.
	Place(sys *System, app *App) mem.TierID
}

// PremapPlacer is optionally implemented by placers whose Place keeps
// per-app state. Resume never premaps: for each running app, in
// admission order and before AppStarted, it calls Premapped with the
// number of pages the app's admission premap placed, and the placer
// sets the state those Place calls left.
type PremapPlacer interface {
	Placer
	Premapped(sys *System, app *App, pages int)
}

// NullPolicy performs no migrations — the static first-touch baseline.
type NullPolicy struct{}

// Name implements Tiering.
func (NullPolicy) Name() string { return "static" }

// Mechanisms implements Tiering.
func (NullPolicy) Mechanisms() Mechanisms { return Mechanisms{} }

// AppStarted implements Tiering.
func (NullPolicy) AppStarted(*System, *App) {}

// EndEpoch implements Tiering.
func (NullPolicy) EndEpoch(*System) {}
