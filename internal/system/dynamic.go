package system

import (
	"fmt"
	"slices"

	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/workload"
)

// AppStopper is optionally implemented by policies that keep per-app
// registration state (Vulcan's QoS controller and promotion queues).
// AppStopped is invoked by StopApp while the app's runtime state is
// still intact, so the policy can drop its references; policies that
// only ever walk StartedApps need no implementation.
type AppStopper interface {
	AppStopped(sys *System, app *App)
}

// LiveThreads counts the threads of every app that is running or still
// pending admission — the population that can occupy cores now or
// later. The fleet placement layer uses it for admission control.
func (s *System) LiveThreads() int { return s.liveThreads() }

// liveThreads counts the threads of every app that is running or still
// pending admission — the population that can occupy cores now or later.
func (s *System) liveThreads() int {
	n := 0
	for _, a := range s.apps {
		if !a.stopped {
			n += a.Cfg.Threads
		}
	}
	return n
}

// AddApp appends a new application to a dynamic system at runtime. The
// app joins the admission queue and is admitted by the next RunEpoch
// once its StartAt time arrives (callers that want immediate admission
// set StartAt at or before the current clock). The system must have
// been built with AllowDynamic; names must be unique (recorder series,
// telemetry labels and policy registries are keyed by them), the config
// must pass AppConfig.Check, the newcomer's threads must fit alongside
// every non-stopped app's, and its RSS must fit the machine's fast and
// slow tiers together (an app larger than the machine could never be
// mapped).
func (s *System) AddApp(ac workload.AppConfig) (*App, error) {
	if !s.cfg.AllowDynamic {
		return nil, fmt.Errorf("system: AddApp on a static system (Config.AllowDynamic is off)")
	}
	if err := ac.Check(); err != nil {
		return nil, err
	}
	if s.App(ac.Name) != nil {
		return nil, fmt.Errorf("system: app %q already exists", ac.Name)
	}
	if live := s.liveThreads(); live+ac.Threads > s.cores {
		return nil, fmt.Errorf("system: app %q needs %d threads, %d of %d cores already committed",
			ac.Name, ac.Threads, live, s.cores)
	}
	if capacity := s.tiers.Fast().Capacity() + s.tiers.Slow().Capacity(); ac.RSSPages > capacity {
		return nil, fmt.Errorf("system: app %q needs %d pages, the machine has %d",
			ac.Name, ac.RSSPages, capacity)
	}
	a := &App{
		Cfg: ac, Index: len(s.apps), rng: s.rng.Fork(),
		keyFastPages: ac.Name + ".fast_pages",
		keyFTHR:      ac.Name + ".fthr",
		keyOps:       ac.Name + ".ops",
	}
	s.apps = append(s.apps, a)
	s.cfi.Grow()
	return a, nil
}

// StopApp evicts a running application: the policy is notified first
// (AppStopper implementations drop their registration state), then
// every frame the app holds — mapped pages and shadow copies alike —
// is returned to its tier, and the app is retired in place. Its slot,
// recorder series, cumulative fairness contribution and reporting
// summary survive; its runtime state and its future do not. Must be
// called between epochs (the same boundary contract as Checkpoint).
// Stopping is permanent: a retired name can only come back as a fresh
// AddApp instance under a new name.
func (s *System) StopApp(a *App) error {
	if !s.cfg.AllowDynamic {
		return fmt.Errorf("system: StopApp on a static system (Config.AllowDynamic is off)")
	}
	if a == nil || a.Index < 0 || a.Index >= len(s.apps) || s.apps[a.Index] != a {
		return fmt.Errorf("system: StopApp of an app this system does not own")
	}
	if a.stopped {
		return fmt.Errorf("system: app %q already stopped", a.Cfg.Name)
	}
	if !a.started {
		return fmt.Errorf("system: app %q not admitted yet", a.Cfg.Name)
	}
	s.retire(a)
	if obs.Enabled(s.obs, obs.EvAppStop) {
		s.obs.Event(obs.E(obs.EvAppStop, a.Cfg.Name, "", 0,
			obs.F("total_ops", a.totalOps),
			obs.F("fthr", a.FTHR())))
	}
	s.rescore([]*App{a})
	return nil
}

// SetIntensity adjusts a running application's workload intensity to
// milli thousandths of its configured rate (1000 = as configured): the
// per-epoch sample count and, for open-loop apps, the arrival rate both
// scale. Must be called between epochs on a dynamic system; the change
// takes effect with the next RunEpoch. milli must be in [1, 1000000].
func (s *System) SetIntensity(a *App, milli int) error {
	if !s.cfg.AllowDynamic {
		return fmt.Errorf("system: SetIntensity on a static system (Config.AllowDynamic is off)")
	}
	if a == nil || a.Index < 0 || a.Index >= len(s.apps) || s.apps[a.Index] != a {
		return fmt.Errorf("system: SetIntensity of an app this system does not own")
	}
	if !a.started || a.stopped {
		return fmt.Errorf("system: SetIntensity of %q, which is not running", a.Cfg.Name)
	}
	if milli < 1 || milli > 1_000_000 {
		return fmt.Errorf("system: intensity %d out of range [1, 1000000]", milli)
	}
	a.intensityMilli = milli
	s.rescore([]*App{a})
	return nil
}

// rescore forwards a dirty app set to the policy's incremental
// re-evaluation hook, when both the config gate and the policy support
// it. No-op otherwise, keeping classic runs byte-identical.
func (s *System) rescore(dirty []*App) {
	if !s.cfg.IncrementalRescore || len(dirty) == 0 {
		return
	}
	if r, ok := s.policy.(Rescorer); ok {
		r.Reevaluate(s, dirty)
	}
}

// retire tears a stopped app down to its durable summary: policy
// notification, frame release, removal from the live list and the
// admission order, and the flag flip. What remains — name, FTHR, perf
// series, sample weight and op counts — is exactly what the report and
// the app's checkpoint section carry.
func (s *System) retire(a *App) {
	if ps, ok := s.policy.(AppStopper); ok {
		ps.AppStopped(s, a)
	}
	// The table is discarded with the app, so its frames are freed in
	// walk order without unmapping.
	a.Table.Range(func(_ pagetable.VPage, pte pagetable.PTE) bool {
		s.tiers.Free(pte.Frame())
		return true
	})
	// Shadow copies of promoted pages hold slow-tier frames of their own.
	a.Engine.DropAllShadows()
	i, _ := slices.BinarySearchFunc(s.live, a.Index, byIndex)
	s.live = slices.Delete(s.live, i, i+1)
	s.admitOrder = slices.DeleteFunc(s.admitOrder, func(idx int) bool { return idx == a.Index })
	a.Table, a.TLBs, a.Threads = nil, nil, nil
	a.Engine, a.Async, a.Retry, a.Profiler, a.sampleFaults = nil, nil, nil, nil, nil
	a.acct = appAccounts{}
	a.started = false
	a.stopped = true
	a.fastPages = 0
	a.rssMapped = 0
	a.pendingStall = 0
}

// byIndex orders apps by their slot index (the live list's order).
func byIndex(a *App, idx int) int { return a.Index - idx }
