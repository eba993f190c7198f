// Package cluster scales the single-machine colocation simulator to a
// fleet: N independent machine instances — each a full internal/system
// stack with its own tiers, policy and profilers — stepped
// in lockstep by a shared fleet clock at epoch granularity, under a
// placement layer that admits, evicts and rebalances applications
// across hosts.
//
// The paper's fairness argument is per-machine; a datacenter deploys
// many such machines and a placement layer above them decides which
// tenants share which box. This package asks the fleet-level question:
// given Vulcan (or any per-host policy) managing each machine, how much
// fleet-wide fairness and throughput does the *scheduler* leave on the
// table? Three schedulers bracket the space (see scheduler.go).
//
// Determinism contract: hosts are mutually independent within an epoch,
// so the fleet steps them in parallel via internal/lab and commits
// results serially in host order — output is byte-identical at any
// worker count. All scheduler decisions happen in the serial phase
// between epochs, in job/host index order, and never consult wall
// clocks or unsorted maps. Fleet checkpoints compose every host's
// checkpoint blob into one versioned container (see checkpoint.go), so
// fleets resume and branch exactly like single runs.
package cluster

import (
	"fmt"

	"vulcan/internal/lab"
	"vulcan/internal/machine"
	"vulcan/internal/metrics"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// crossHostCopyCyclesPerPage models the cost of shipping one 4KiB page
// to another machine during a rebalance move: ~330ns of wire time on a
// 100Gb/s fabric plus protocol and page-fault overhead, call it 2µs at
// 3GHz. It is charged to the fleet's migration-cycle total, not to
// either host's simulation (the move happens between epochs).
const crossHostCopyCyclesPerPage = 6000.0

// JobSpec is one application's fleet lifecycle: the workload template
// plus the fleet epochs at which it arrives and (optionally) departs.
type JobSpec struct {
	// App is the workload template. Its Name must be unique across the
	// fleet, at most 56 bytes, and must not contain '~' (the last 8
	// bytes and '~' are reserved for re-placement generation
	// suffixes); StartAt is ignored — arrival is governed by
	// Arrive.
	App workload.AppConfig
	// Arrive is the fleet epoch at which the job first asks for
	// placement. Jobs the scheduler defers retry every epoch.
	Arrive int
	// Depart, when > 0, is the fleet epoch at which the job is stopped
	// and leaves the fleet for good. 0 means the job runs to the end.
	Depart int
}

// HostTemplate shapes each host's machine. Overridden per host via
// Config.HostOverride.
type HostTemplate struct {
	Machine machine.Config
	// NewPolicy builds one host's tiering policy. Called once per host
	// (and again on resume); nil means the static NullPolicy.
	NewPolicy func() system.Tiering
	// EpochLength is each host's epoch, which is also the fleet's
	// scheduling quantum (default 10ms — micro-scale, like the tests).
	EpochLength sim.Duration
	// SamplesPerThread forwards to system.Config (0 = that default).
	SamplesPerThread int
}

// Config assembles one fleet experiment.
type Config struct {
	// Hosts is the number of machine instances (>= 1).
	Hosts int
	// Host is the per-host template.
	Host HostTemplate
	// HostOverride, when non-nil, may mutate one host's system config
	// after the template is applied (capacity skew, policy swaps). It
	// must be deterministic in the host index. Hosts have no telemetry
	// sink by default; setting cfg.Obs here opts a host into one, and no
	// scheduler decision depends on it.
	HostOverride func(host int, cfg *system.Config)
	// Scheduler names the placement policy (see Schedulers()).
	Scheduler string
	// Jobs is the fleet workload (>= 1 job).
	Jobs []JobSpec
	// RebalanceEvery, when > 0, runs the scheduler's rebalance pass
	// every that many fleet epochs.
	RebalanceEvery int
	// MoveBudget caps cross-host moves per rebalance pass (default 1).
	MoveBudget int
	// Workers bounds the host-stepping parallelism (0 = lab default).
	Workers int
	// Seed derives every host's seed; fleet output is a pure function
	// of (Config, epochs run).
	Seed uint64
}

// Job is one fleet job's placement state. Scheduler implementations
// read these; only the fleet mutates them.
type Job struct {
	Idx  int
	Spec JobSpec
	// HostID is the current host (-1 while unplaced).
	HostID int
	// Gen counts placements: 0 for the first, +1 per rebalance move.
	// Instance names carry the generation ("job~2") because a host's
	// retired names are permanent.
	Gen int
	// Done marks a departed job.
	Done bool

	app *system.App
}

// Placed reports whether the job currently runs on some host.
func (j *Job) Placed() bool { return j.HostID >= 0 }

// Host is one machine instance of the fleet.
type Host struct {
	ID  int
	Sys *system.System

	// opsHist accumulates this host's per-epoch completed operations;
	// fleet reporting merges every host's histogram into one
	// distribution (metrics.Histogram.Merge).
	opsHist *metrics.Histogram
}

// placeRec is one AddApp call on one host, in order — the append-only
// log a fleet checkpoint needs to rebuild the host's historical app
// list (stopped instances included) before system.Resume can restore it.
type placeRec struct {
	jobIdx int
	gen    int
}

// Fleet is the live fleet runtime.
type Fleet struct {
	cfg   Config
	hosts []*Host
	jobs  []*Job
	sched Scheduler
	epoch int

	// cfi tracks the paper's Eq.4 fairness per *job* across the whole
	// fleet: a job keeps its slot through rebalance moves, so fleet
	// fairness judges tenants, not instances.
	cfi *metrics.CFITracker

	// hostLog[h] records every placement on host h in AddApp order.
	hostLog [][]placeRec

	moves         int
	rebalances    int
	migratedPages uint64
}

// opsHistBuckets shape every host's per-epoch ops histogram; all hosts
// share one shape so Merge composes them.
// (Out-of-range epochs clamp into the edge buckets — full-scale hosts
// complete ~1e7-1e8 ops per 1s epoch, micro-scale tests far less.)
const (
	opsHistMax     = 1e8
	opsHistBuckets = 64
)

func (c *Config) fillDefaults() {
	if c.Host.EpochLength == 0 {
		c.Host.EpochLength = 10 * sim.Millisecond
	}
	if c.MoveBudget == 0 {
		c.MoveBudget = 1
	}
	if c.Scheduler == "" {
		c.Scheduler = "binpack"
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

func (c *Config) validate() error {
	if c.Hosts < 1 {
		return fmt.Errorf("cluster: %d hosts (need at least 1)", c.Hosts)
	}
	if len(c.Jobs) == 0 {
		return fmt.Errorf("cluster: no jobs configured")
	}
	for i, j := range c.Jobs {
		if j.App.Name == "" {
			return fmt.Errorf("cluster: job %d has no name", i)
		}
		for _, r := range j.App.Name {
			if r == '~' {
				return fmt.Errorf("cluster: job %q: '~' is reserved for re-placement generations", j.App.Name)
			}
		}
		if len(j.App.Name) > workload.MaxNameLen-genSuffixLen {
			return fmt.Errorf("cluster: job %q: names over %d bytes leave no room for re-placement generations",
				j.App.Name, workload.MaxNameLen-genSuffixLen)
		}
		for k := 0; k < i; k++ {
			if c.Jobs[k].App.Name == j.App.Name {
				return fmt.Errorf("cluster: duplicate job name %q", j.App.Name)
			}
		}
		if j.Arrive < 0 || j.Depart < 0 {
			return fmt.Errorf("cluster: job %q has a negative epoch", j.App.Name)
		}
		if j.Depart > 0 && j.Depart <= j.Arrive {
			return fmt.Errorf("cluster: job %q departs at epoch %d, before arriving at %d",
				j.App.Name, j.Depart, j.Arrive)
		}
	}
	if c.RebalanceEvery < 0 || c.MoveBudget < 0 {
		return fmt.Errorf("cluster: negative rebalance cadence or move budget")
	}
	return nil
}

// hostSeed spreads the fleet seed across hosts (splitmix increment, so
// adjacent hosts don't share low bits).
func hostSeed(seed uint64, host int) uint64 {
	s := seed + uint64(host+1)*0x9e3779b97f4a7c15
	if s == 0 {
		s = 1
	}
	return s
}

// hostConfig builds host h's system config from the template.
func (c *Config) hostConfig(h int) system.Config {
	m := c.Host.Machine
	if m.Cores == 0 {
		m = machine.DefaultConfig()
	}
	scfg := system.Config{
		Machine:          m,
		AllowDynamic:     true,
		EpochLength:      c.Host.EpochLength,
		SamplesPerThread: c.Host.SamplesPerThread,
		Seed:             hostSeed(c.Seed, h),
	}
	if c.Host.NewPolicy != nil {
		scfg.Policy = c.Host.NewPolicy()
	}
	if c.HostOverride != nil {
		c.HostOverride(h, &scfg)
	}
	return scfg
}

// New validates cfg and builds an idle fleet (no job placed yet; the
// first RunEpoch runs the first scheduling pass).
func New(cfg Config) (*Fleet, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}
	f := &Fleet{
		cfg:     cfg,
		sched:   sched,
		cfi:     metrics.NewCFITracker(len(cfg.Jobs)),
		hostLog: make([][]placeRec, cfg.Hosts),
	}
	for h := 0; h < cfg.Hosts; h++ {
		f.hosts = append(f.hosts, &Host{
			ID:      h,
			Sys:     system.New(cfg.hostConfig(h)),
			opsHist: metrics.NewHistogram(0, opsHistMax, opsHistBuckets),
		})
	}
	for i, spec := range cfg.Jobs {
		f.jobs = append(f.jobs, &Job{Idx: i, Spec: spec, HostID: -1})
	}
	return f, nil
}

// NumHosts returns the fleet size.
func (f *Fleet) NumHosts() int { return len(f.hosts) }

// Host returns host h.
func (f *Fleet) Host(h int) *Host { return f.hosts[h] }

// Jobs returns the fleet's job states, in job-index order.
func (f *Fleet) Jobs() []*Job { return f.jobs }

// Epoch returns the number of completed fleet epochs.
func (f *Fleet) Epoch() int { return f.epoch }

// CFI returns the fleet-wide per-job fairness tracker.
func (f *Fleet) CFI() *metrics.CFITracker { return f.cfi }

// CanFit reports whether job j's threads fit on host h right now.
func (f *Fleet) CanFit(h int, j *Job) bool {
	sys := f.hosts[h].Sys
	return sys.LiveThreads()+j.Spec.App.Threads <= sys.Cores()
}

// genSuffixLen is the room a job name leaves for instName's "~N"
// suffix within workload.MaxNameLen: '~' and up to seven digits.
const genSuffixLen = 8

// instName is the unique per-placement instance name: a host's retired
// names are permanent, so each re-placement runs under a fresh one.
func instName(spec JobSpec, gen int) string {
	if gen == 0 {
		return spec.App.Name
	}
	return fmt.Sprintf("%s~%d", spec.App.Name, gen)
}

// place puts job j on host h (AddApp; admission happens in the host's
// next epoch).
func (f *Fleet) place(j *Job, h int) error {
	ac := j.Spec.App
	ac.Name = instName(j.Spec, j.Gen)
	ac.StartAt = 0
	app, err := f.hosts[h].Sys.AddApp(ac)
	if err != nil {
		return err
	}
	f.hostLog[h] = append(f.hostLog[h], placeRec{jobIdx: j.Idx, gen: j.Gen})
	j.app = app
	j.HostID = h
	return nil
}

// evict stops job j's current instance and returns the pages it held.
func (f *Fleet) evict(j *Job) (pages int, err error) {
	pages = j.app.RSSMapped()
	if err := f.hosts[j.HostID].Sys.StopApp(j.app); err != nil {
		return 0, err
	}
	j.app = nil
	j.HostID = -1
	return pages, nil
}

// RunEpoch advances the whole fleet by one epoch: a serial scheduling
// phase (departures, then arrivals, then an optional rebalance pass),
// a parallel host-stepping phase, and a serial in-host-order rollup.
func (f *Fleet) RunEpoch() error {
	// Departures first: a leaving tenant's capacity is available to this
	// epoch's arrivals.
	for _, j := range f.jobs {
		if j.Done || j.Spec.Depart == 0 || f.epoch < j.Spec.Depart {
			continue
		}
		if j.Placed() {
			if _, err := f.evict(j); err != nil {
				return err
			}
		}
		j.Done = true
	}
	// Arrivals, in job-index order; deferred jobs retry every epoch.
	for _, j := range f.jobs {
		if j.Done || j.Placed() || f.epoch < j.Spec.Arrive {
			continue
		}
		h := f.sched.Place(f, j)
		if h < 0 || h >= len(f.hosts) || !f.CanFit(h, j) {
			continue // deferred
		}
		if err := f.place(j, h); err != nil {
			return err
		}
	}
	// Rebalance on cadence. Moves are proposals: the fleet re-validates
	// each one so a buggy scheduler cannot corrupt placement state.
	if f.cfg.RebalanceEvery > 0 && f.epoch > 0 && f.epoch%f.cfg.RebalanceEvery == 0 {
		applied := 0
		for _, mv := range f.sched.Rebalance(f, f.cfg.MoveBudget) {
			if applied >= f.cfg.MoveBudget {
				break
			}
			if mv.Job < 0 || mv.Job >= len(f.jobs) || mv.To < 0 || mv.To >= len(f.hosts) {
				continue
			}
			j := f.jobs[mv.Job]
			if j.Done || !j.Placed() || j.HostID == mv.To {
				continue
			}
			// A job placed earlier in this same scheduling phase has no
			// admitted instance yet; it cannot be stopped, only left to
			// start where it was just put.
			if j.app == nil || !j.app.Started() {
				continue
			}
			// The mover's own threads only free capacity on its current
			// host, so the destination must fit it as it stands.
			if !f.CanFit(mv.To, j) {
				continue
			}
			pages, err := f.evict(j)
			if err != nil {
				return err
			}
			f.migratedPages += uint64(pages)
			j.Gen++
			if err := f.place(j, mv.To); err != nil {
				return err
			}
			applied++
		}
		if applied > 0 {
			f.rebalances++
			f.moves += applied
		}
	}
	// Step every host one epoch. Hosts share nothing, so any worker
	// count produces identical per-host state; the rollup below touches
	// fleet state serially in host order.
	lab.ForEach(f.cfg.Workers, len(f.hosts), func(i int) {
		f.hosts[i].Sys.RunEpoch()
	})
	// Rollup: fleet fairness per job, throughput histogram per host.
	for _, j := range f.jobs {
		if j.app != nil && j.app.Started() {
			f.cfi.Observe(j.Idx, float64(j.app.FastPages()), j.app.FTHR())
		}
	}
	for _, h := range f.hosts {
		ops := 0.0
		for _, a := range h.Sys.StartedApps() {
			ops += a.EpochOps()
		}
		h.opsHist.Add(ops)
	}
	f.epoch++
	return nil
}

// Run advances the fleet n epochs.
func (f *Fleet) Run(n int) error {
	for i := 0; i < n; i++ {
		if err := f.RunEpoch(); err != nil {
			return err
		}
	}
	return nil
}
