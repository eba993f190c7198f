// Package scenario loads co-location experiments from JSON files, so
// experiments can be defined, shared and versioned without writing Go.
//
// Example:
//
//	{
//	  "policy": "vulcan",
//	  "seconds": 120,
//	  "seed": 7,
//	  "scale": 4,
//	  "apps": [
//	    {"preset": "memcached", "start_at_s": 0},
//	    {"preset": "liblinear", "start_at_s": 50},
//	    {"name": "custom-scan", "class": "BE", "threads": 4,
//	     "rss_pages": 20000, "generator": "zipf", "zipf_skew": 0.9,
//	     "write_frac": 0.2, "compute_ns": 80}
//	  ],
//	  "faults": {"profile": "moderate", "seed": 42}
//	}
//
// A preset's footprint is divided by scale; its "name", when set,
// renames it (so one preset can run twice).
//
// The optional faults block compiles to a fault.Plan: name a canned
// profile ("off", "light", "moderate", "heavy") or give an explicit
// "rate" for the canonical all-kinds plan; "seed" re-keys the fault
// schedule without touching workload randomness.
//
// The optional fleet block turns the scenario into a multi-host run:
//
//	"fleet": {"hosts": 4, "scheduler": "fairness", "rebalance_every": 5,
//	          "move_budget": 2, "overrides": [{"host": 0, "fast_pages": 64}]}
//
// Each app becomes one fleet job; start_at_s is its arrival epoch and
// stop_at_s (fleet-only) its departure epoch. Every host is a copy of
// the scenario machine unless an override reshapes it.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"vulcan/internal/cluster"
	"vulcan/internal/fault"
	"vulcan/internal/figures"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// File is the JSON schema of a scenario.
type File struct {
	Policy  string `json:"policy"`
	Seconds int    `json:"seconds"`
	Seed    uint64 `json:"seed"`
	// Scale divides the default machine and preset footprints.
	Scale int   `json:"scale"`
	Apps  []App `json:"apps"`
	// Machine optionally overrides the default host.
	Machine *Machine `json:"machine,omitempty"`
	// Faults optionally arms deterministic fault injection.
	Faults *Faults `json:"faults,omitempty"`
	// Fleet optionally spreads the apps across a multi-host cluster.
	Fleet *Fleet `json:"fleet,omitempty"`
	// Arrivals optionally arms deterministic job churn on a dynamic
	// single-host run.
	Arrivals *Arrivals `json:"arrivals,omitempty"`
}

// Arrivals describes a deterministic arrival process: generated app
// instances stamped from a template, admitted either by a Poisson
// process ("rate_per_epoch") or an explicit schedule, each departing
// after its drawn lifetime. Compiles to a workload.ArrivalSpec:
//
//	"arrivals": {"rate_per_epoch": 0.2, "seed": 9,
//	             "lifetime_min_epochs": 10, "lifetime_max_epochs": 40,
//	             "max_live": 3,
//	             "template": {"name": "churn", "class": "BE", "threads": 1,
//	                          "rss_pages": 4096, "generator": "uniform"}}
type Arrivals struct {
	// RatePerEpoch is the Poisson mean; mutually exclusive with Schedule.
	RatePerEpoch float64 `json:"rate_per_epoch,omitempty"`
	// Seed re-keys the arrival stream; 0 derives it from the scenario
	// seed.
	Seed uint64 `json:"seed,omitempty"`
	// Template is the per-instance app; instance i is admitted as
	// "<name>-a<i>". start_at_s/stop_at_s must stay unset — the process
	// decides both.
	Template App `json:"template"`
	// LifetimeMinEpochs/LifetimeMaxEpochs bound the uniform lifetime
	// draw; max 0 runs instances to the end of the scenario.
	LifetimeMinEpochs int `json:"lifetime_min_epochs,omitempty"`
	LifetimeMaxEpochs int `json:"lifetime_max_epochs,omitempty"`
	// MaxLive caps concurrently live generated instances (0 = unbounded).
	MaxLive int `json:"max_live,omitempty"`
	// Schedule replaces the Poisson process with an explicit trace.
	Schedule []ArrivalEntry `json:"schedule,omitempty"`
}

// ArrivalEntry is one explicit scheduled arrival.
type ArrivalEntry struct {
	Epoch          int `json:"epoch"`
	LifetimeEpochs int `json:"lifetime_epochs,omitempty"`
}

// Fleet spreads the scenario's apps over a cluster of identical hosts
// (each shaped by the scenario machine) under a placement scheduler.
// Apps become fleet jobs: start_at_s is the arrival epoch and the
// optional stop_at_s the departure epoch (fleet epochs are one second).
type Fleet struct {
	Hosts          int    `json:"hosts"`
	Scheduler      string `json:"scheduler,omitempty"`
	RebalanceEvery int    `json:"rebalance_every,omitempty"`
	MoveBudget     int    `json:"move_budget,omitempty"`
	// Overrides tweak individual hosts away from the shared template.
	Overrides []HostOverride `json:"overrides,omitempty"`
}

// HostOverride reshapes one host of the fleet.
type HostOverride struct {
	Host      int `json:"host"`
	Cores     int `json:"cores,omitempty"`
	FastPages int `json:"fast_pages,omitempty"`
	SlowPages int `json:"slow_pages,omitempty"`
}

// apply reshapes m as the override's host.
func (ov HostOverride) apply(m *machine.Config) {
	if ov.Cores > 0 {
		m.Cores = ov.Cores
	}
	if ov.FastPages > 0 {
		m.Tiers[mem.TierFast].CapacityPages = ov.FastPages
	}
	if ov.SlowPages > 0 {
		m.Tiers[mem.TierSlow].CapacityPages = ov.SlowPages
	}
}

// Faults selects a fault plan: either a named profile (off, light,
// moderate, heavy) or an explicit rate for the canonical all-kinds
// plan, but not both. Seed re-keys the fault schedule independently of
// the scenario seed.
type Faults struct {
	Profile string  `json:"profile,omitempty"`
	Rate    float64 `json:"rate,omitempty"`
	Seed    uint64  `json:"seed,omitempty"`
}

// Machine overrides host parameters.
type Machine struct {
	Cores     int `json:"cores,omitempty"`
	FastPages int `json:"fast_pages,omitempty"`
	SlowPages int `json:"slow_pages,omitempty"`
}

// App describes one application: either a named preset (memcached,
// pagerank, liblinear) or a custom generator spec.
type App struct {
	Preset   string `json:"preset,omitempty"`
	StartAtS int    `json:"start_at_s,omitempty"`
	// StopAtS departs the app at that second; fleet scenarios only.
	StopAtS int `json:"stop_at_s,omitempty"`

	// Name names a custom app and renames a preset.
	Name string `json:"name,omitempty"`

	// Custom-app fields (ignored when Preset is set).
	Class     string  `json:"class,omitempty"` // "LC" or "BE"
	Threads   int     `json:"threads,omitempty"`
	RSSPages  int     `json:"rss_pages,omitempty"`
	Shared    float64 `json:"shared_fraction,omitempty"`
	ComputeNs int     `json:"compute_ns,omitempty"`
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	Generator string  `json:"generator,omitempty"` // zipf|uniform|scan|keyvalue|graph|mltrain|webserver|micro
	ZipfSkew  float64 `json:"zipf_skew,omitempty"`
	WriteFrac float64 `json:"write_frac,omitempty"`
	LLCHit    float64 `json:"llc_hit,omitempty"`
	WSSPages  int     `json:"wss_pages,omitempty"`
	// PremapFraction < 1 makes the resident set grow at runtime.
	PremapFraction float64 `json:"premap_fraction,omitempty"`
}

// Parsed is a fully resolved scenario ready to run.
type Parsed struct {
	Policy   string
	Duration sim.Duration
	Seed     uint64
	// Scale is the effective capacity divisor after defaulting; runtime
	// admissions (the serving daemon's control API) resolve their app
	// specs against it so a late admit scales exactly like a configured
	// one.
	Scale   int
	Machine machine.Config
	Apps    []workload.AppConfig
	// Faults is the compiled fault plan, nil when the scenario runs
	// chaos-free.
	Faults *fault.Plan
	// Fleet is the resolved multi-host plan, nil for single-machine
	// runs. When set, Jobs supersedes Apps: each scenario app becomes
	// one fleet job with its arrival/departure epochs.
	Fleet *FleetPlan
	// Arrivals is the resolved churn process, nil for static runs. The
	// runner expands it with Plan(epochs) and admits/stops instances at
	// epoch boundaries; the system must run with AllowDynamic.
	Arrivals *workload.ArrivalSpec
}

// FleetPlan is the resolved form of the fleet block.
type FleetPlan struct {
	Hosts          int
	Scheduler      string
	RebalanceEvery int
	MoveBudget     int
	Overrides      []HostOverride
	Jobs           []cluster.JobSpec
}

// Load reads and resolves a scenario from JSON.
func Load(r io.Reader) (*Parsed, error) {
	f, err := LoadFile(r)
	if err != nil {
		return nil, err
	}
	return Resolve(f)
}

// LoadFile reads the raw JSON schema without resolving it — for callers
// that persist the scenario as written (the serve journal header) and
// resolve later.
func LoadFile(r io.Reader) (File, error) {
	var f File
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return File{}, fmt.Errorf("scenario: %w", err)
	}
	return f, nil
}

// Resolve turns the JSON schema into runnable configuration.
func Resolve(f File) (*Parsed, error) {
	if f.Policy == "" {
		f.Policy = "vulcan"
	}
	if f.Seconds <= 0 {
		f.Seconds = 120
	}
	if f.Seed == 0 {
		f.Seed = 1
	}
	if f.Scale < 1 {
		f.Scale = 1
	}
	if !figures.ValidPolicy(f.Policy) {
		return nil, fmt.Errorf("scenario: unknown policy %q (want one of %s)",
			f.Policy, strings.Join(figures.PolicyNames, ", "))
	}
	if len(f.Apps) == 0 {
		return nil, fmt.Errorf("scenario: no apps")
	}

	mcfg := figures.ColocationMachine(f.Scale)
	if f.Machine != nil {
		if f.Machine.Cores > 0 {
			mcfg.Cores = f.Machine.Cores
		}
		if f.Machine.FastPages > 0 {
			mcfg.Tiers[mem.TierFast].CapacityPages = f.Machine.FastPages
		}
		if f.Machine.SlowPages > 0 {
			mcfg.Tiers[mem.TierSlow].CapacityPages = f.Machine.SlowPages
		}
	}

	for t, tc := range mcfg.Tiers {
		if tc.CapacityPages < 1 {
			return nil, fmt.Errorf("scenario: machine's %s tier has %d pages (scale %d)", mem.TierID(t), tc.CapacityPages, f.Scale)
		}
	}

	p := &Parsed{
		Policy:   f.Policy,
		Duration: sim.Duration(f.Seconds) * sim.Second,
		Seed:     f.Seed,
		Scale:    f.Scale,
		Machine:  mcfg,
	}
	for i, a := range f.Apps {
		cfg, err := resolveApp(a, f.Scale)
		if err != nil {
			return nil, fmt.Errorf("scenario: app %d: %w", i, err)
		}
		if a.StopAtS != 0 {
			if f.Fleet == nil {
				return nil, fmt.Errorf("scenario: app %d: stop_at_s needs a fleet block", i)
			}
			if a.StopAtS <= a.StartAtS {
				return nil, fmt.Errorf("scenario: app %d: stop_at_s %d not after start_at_s %d", i, a.StopAtS, a.StartAtS)
			}
		}
		p.Apps = append(p.Apps, cfg)
	}
	if f.Fleet == nil {
		// Every app of a single-host scenario is co-resident (stop_at_s
		// is fleet-only), so together they must fit in physical memory.
		rss := 0
		for _, a := range p.Apps {
			rss += a.RSSPages
		}
		if total := machinePages(mcfg); rss > total {
			return nil, fmt.Errorf("scenario: apps' summed RSS %d pages exceeds the machine's %d (fast + slow)", rss, total)
		}
	}
	plan, err := resolveFaults(f.Faults)
	if err != nil {
		return nil, err
	}
	p.Faults = plan
	fp, err := resolveFleet(f.Fleet, mcfg, f.Apps, p.Apps)
	if err != nil {
		return nil, err
	}
	p.Fleet = fp
	spec, err := resolveArrivals(f.Arrivals, f, p.Apps)
	if err != nil {
		return nil, err
	}
	p.Arrivals = spec
	return p, nil
}

// SystemConfig lowers a single-host scenario to a system configuration
// with a fresh policy instance. samples sets SamplesPerThread; 0 keeps
// the system default (400). Runner concerns (telemetry, cost profiling,
// dynamic turnover) are the caller's to add.
func (p *Parsed) SystemConfig(samples int) system.Config {
	return system.Config{
		Machine:          p.Machine,
		Apps:             p.Apps,
		Policy:           figures.NewPolicy(p.Policy),
		Seed:             p.Seed,
		SamplesPerThread: samples,
		Faults:           p.Faults,
	}
}

// resolveArrivals compiles the arrivals block to a workload.ArrivalSpec.
func resolveArrivals(ab *Arrivals, f File, apps []workload.AppConfig) (*workload.ArrivalSpec, error) {
	if ab == nil {
		return nil, nil
	}
	if f.Fleet != nil {
		return nil, fmt.Errorf("scenario: arrivals and fleet blocks are mutually exclusive")
	}
	if ab.RatePerEpoch < 0 {
		return nil, fmt.Errorf("scenario: arrivals rate_per_epoch %g is negative", ab.RatePerEpoch)
	}
	if ab.RatePerEpoch > 0 && len(ab.Schedule) > 0 {
		return nil, fmt.Errorf("scenario: arrivals rate_per_epoch and schedule are mutually exclusive")
	}
	if ab.RatePerEpoch == 0 && len(ab.Schedule) == 0 {
		return nil, fmt.Errorf("scenario: arrivals block needs rate_per_epoch or a schedule")
	}
	if ab.LifetimeMinEpochs < 0 || ab.LifetimeMaxEpochs < 0 ||
		(ab.LifetimeMaxEpochs > 0 && ab.LifetimeMinEpochs > ab.LifetimeMaxEpochs) {
		return nil, fmt.Errorf("scenario: arrivals lifetime range [%d, %d] is malformed",
			ab.LifetimeMinEpochs, ab.LifetimeMaxEpochs)
	}
	if ab.MaxLive < 0 {
		return nil, fmt.Errorf("scenario: arrivals max_live %d is negative", ab.MaxLive)
	}
	if ab.Template.StartAtS != 0 || ab.Template.StopAtS != 0 {
		return nil, fmt.Errorf("scenario: arrivals template must not set start_at_s/stop_at_s; the process decides both")
	}
	tmpl, err := resolveApp(ab.Template, f.Scale)
	if err != nil {
		return nil, fmt.Errorf("scenario: arrivals template: %w", err)
	}
	for _, a := range apps {
		if a.Name == tmpl.Name {
			return nil, fmt.Errorf("scenario: arrivals template name %q collides with a scenario app", tmpl.Name)
		}
	}
	seed := ab.Seed
	if seed == 0 {
		seed = f.Seed
	}
	spec := &workload.ArrivalSpec{
		Seed:        seed,
		Rate:        ab.RatePerEpoch,
		Template:    tmpl,
		LifetimeMin: ab.LifetimeMinEpochs,
		LifetimeMax: ab.LifetimeMaxEpochs,
		MaxLive:     ab.MaxLive,
	}
	for i, sc := range ab.Schedule {
		if sc.Epoch < 0 || sc.LifetimeEpochs < 0 {
			return nil, fmt.Errorf("scenario: arrivals schedule entry %d is malformed", i)
		}
		spec.Schedule = append(spec.Schedule, workload.ScheduledArrival{
			Epoch: sc.Epoch, Lifetime: sc.LifetimeEpochs,
		})
	}
	return spec, nil
}

// ClusterConfig assembles a runnable fleet configuration: every host is
// a copy of the scenario machine (reshaped by the plan's overrides) that
// runs its own instance of the scenario policy and sees the scenario's
// fault plan. The caller supplies the epoch shape and samples per
// thread (0 = the system default) because those are runner choices, not
// scenario content.
func (fp *FleetPlan) ClusterConfig(p *Parsed, epoch sim.Duration, samples int) cluster.Config {
	overrides := fp.Overrides
	faults := p.Faults
	return cluster.Config{
		Hosts: fp.Hosts,
		Host: cluster.HostTemplate{
			Machine:          p.Machine,
			NewPolicy:        func() system.Tiering { return figures.NewPolicy(p.Policy) },
			EpochLength:      epoch,
			SamplesPerThread: samples,
		},
		HostOverride: func(h int, cfg *system.Config) {
			cfg.Faults = faults
			for _, ov := range overrides {
				if ov.Host == h {
					ov.apply(&cfg.Machine)
				}
			}
		},
		Scheduler:      fp.Scheduler,
		Jobs:           fp.Jobs,
		RebalanceEvery: fp.RebalanceEvery,
		MoveBudget:     fp.MoveBudget,
		Seed:           p.Seed,
	}
}

// resolveFleet compiles the fleet block into a placement plan. The
// scenario's apps become the job list; arrival and departure epochs
// come from start_at_s / stop_at_s (fleet epochs are one second).
func resolveFleet(fb *Fleet, mcfg machine.Config, src []App, apps []workload.AppConfig) (*FleetPlan, error) {
	if fb == nil {
		return nil, nil
	}
	if fb.Hosts < 1 {
		return nil, fmt.Errorf("scenario: fleet needs at least one host, got %d", fb.Hosts)
	}
	sched := fb.Scheduler
	if sched == "" {
		sched = "binpack"
	}
	if _, err := cluster.NewScheduler(sched); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	if fb.RebalanceEvery < 0 {
		return nil, fmt.Errorf("scenario: fleet rebalance_every %d is negative", fb.RebalanceEvery)
	}
	if fb.MoveBudget < 0 {
		return nil, fmt.Errorf("scenario: fleet move_budget %d is negative", fb.MoveBudget)
	}
	seen := make(map[int]bool)
	for _, ov := range fb.Overrides {
		if ov.Host < 0 || ov.Host >= fb.Hosts {
			return nil, fmt.Errorf("scenario: fleet override host %d outside [0,%d)", ov.Host, fb.Hosts)
		}
		if seen[ov.Host] {
			return nil, fmt.Errorf("scenario: duplicate fleet override for host %d", ov.Host)
		}
		seen[ov.Host] = true
		if ov.Cores < 0 || ov.FastPages < 0 || ov.SlowPages < 0 {
			return nil, fmt.Errorf("scenario: fleet override for host %d has negative capacity", ov.Host)
		}
		if ov.Cores == 0 && ov.FastPages == 0 && ov.SlowPages == 0 {
			return nil, fmt.Errorf("scenario: fleet override for host %d changes nothing", ov.Host)
		}
	}
	// A scheduler may place a job on any host with free cores, so each
	// job must fit the smallest host's physical memory on its own.
	hostPages := math.MaxInt
	if len(fb.Overrides) < fb.Hosts {
		hostPages = machinePages(mcfg)
	}
	for _, ov := range fb.Overrides {
		m := mcfg
		ov.apply(&m)
		hostPages = min(hostPages, machinePages(m))
	}
	names := make(map[string]bool)
	fp := &FleetPlan{
		Hosts:          fb.Hosts,
		Scheduler:      sched,
		RebalanceEvery: fb.RebalanceEvery,
		MoveBudget:     fb.MoveBudget,
		Overrides:      fb.Overrides,
	}
	for i, cfg := range apps {
		if names[cfg.Name] {
			return nil, fmt.Errorf("scenario: fleet job %d: duplicate app name %q", i, cfg.Name)
		}
		names[cfg.Name] = true
		if cfg.RSSPages > hostPages {
			return nil, fmt.Errorf("scenario: fleet job %d: RSS %d pages exceeds the smallest host's %d (fast + slow)", i, cfg.RSSPages, hostPages)
		}
		job := cluster.JobSpec{App: cfg, Arrive: src[i].StartAtS, Depart: src[i].StopAtS}
		job.App.StartAt = 0 // arrival epoch drives placement instead
		fp.Jobs = append(fp.Jobs, job)
	}
	return fp, nil
}

// machinePages returns a machine's physical memory, fast plus slow
// pages.
func machinePages(m machine.Config) int {
	return m.Tiers[mem.TierFast].CapacityPages + m.Tiers[mem.TierSlow].CapacityPages
}

// resolveFaults compiles the faults block to a fault plan. A nil block,
// the "off" profile, and a zero rate all mean chaos-free.
func resolveFaults(f *Faults) (*fault.Plan, error) {
	if f == nil {
		return nil, nil
	}
	if f.Rate < 0 || f.Rate > 1 {
		return nil, fmt.Errorf("scenario: faults rate %v outside [0,1]", f.Rate)
	}
	var plan *fault.Plan
	if f.Rate > 0 {
		if f.Profile != "" && f.Profile != "off" {
			return nil, fmt.Errorf("scenario: faults profile %q and rate %v are mutually exclusive", f.Profile, f.Rate)
		}
		plan = fault.PlanAtRate(f.Rate)
	} else {
		var err error
		if plan, err = fault.ParseProfile(f.Profile); err != nil {
			return nil, fmt.Errorf("scenario: %w", err)
		}
	}
	if f.Seed != 0 {
		if plan == nil {
			return nil, fmt.Errorf("scenario: faults seed %d without a profile or rate has no effect", f.Seed)
		}
		plan.Seed = f.Seed
	}
	return plan, nil
}

// ResolveApp resolves one app spec exactly as Resolve does for the
// scenario's own apps (presets expanded, custom generators built,
// preset footprints divided by scale). The serving daemon uses it to
// turn journaled admit commands back into runnable configs.
func ResolveApp(a App, scale int) (workload.AppConfig, error) {
	if scale < 1 {
		scale = 1
	}
	return resolveApp(a, scale)
}

func resolveApp(a App, scale int) (workload.AppConfig, error) {
	var cfg workload.AppConfig
	switch a.Preset {
	case "memcached":
		cfg = workload.MemcachedConfig()
	case "pagerank":
		cfg = workload.PageRankConfig()
	case "liblinear":
		cfg = workload.LiblinearConfig()
	case "":
		custom, err := resolveCustom(a)
		if err != nil {
			return cfg, err
		}
		cfg = custom
	default:
		return cfg, fmt.Errorf("unknown preset %q", a.Preset)
	}
	if a.Preset != "" {
		cfg.RSSPages /= scale
		if a.Name != "" {
			cfg.Name = a.Name
		}
	}
	cfg.StartAt = sim.Time(a.StartAtS) * sim.Time(sim.Second)
	if a.PremapFraction != 0 {
		cfg.PremapFraction = a.PremapFraction
	}
	return cfg, cfg.Check()
}

func resolveCustom(a App) (workload.AppConfig, error) {
	var cfg workload.AppConfig
	if a.Name == "" {
		return cfg, fmt.Errorf("custom app needs a name")
	}
	class := workload.BE
	switch a.Class {
	case "LC":
		class = workload.LC
	case "BE", "":
	default:
		return cfg, fmt.Errorf("unknown class %q", a.Class)
	}
	threads := a.Threads
	if threads == 0 {
		threads = 4
	}
	shared := a.Shared
	if shared == 0 {
		shared = 0.9
	}
	llc := a.LLCHit
	if llc == 0 {
		llc = 0.1
	}
	skew := a.ZipfSkew
	if skew == 0 {
		skew = 0.99
	}
	// The generator constructors panic on these; Check builds one.
	if skew < 0 {
		return cfg, fmt.Errorf("zipf_skew %v is negative", skew)
	}
	if a.WriteFrac < 0 || a.WriteFrac > 1 {
		return cfg, fmt.Errorf("write_frac %v outside [0,1]", a.WriteFrac)
	}
	gen, err := generatorFactory(a.Generator, skew, a.WriteFrac, llc, a.WSSPages)
	if err != nil {
		return cfg, err
	}
	cfg = workload.AppConfig{
		Name:           a.Name,
		Class:          class,
		Threads:        threads,
		RSSPages:       a.RSSPages,
		SharedFraction: shared,
		ComputeNs:      sim.Duration(a.ComputeNs) * sim.Nanosecond,
		OpsPerSec:      a.OpsPerSec,
		NewGen:         gen,
	}
	return cfg, nil
}

func generatorFactory(kind string, skew, writeFrac, llc float64, wss int) (workload.GenFactory, error) {
	switch kind {
	case "zipf", "":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewZipfian(p, skew, writeFrac, llc, rng)
		}, nil
	case "uniform":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewUniform(p, writeFrac, llc, rng)
		}, nil
	case "scan":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewScan(p, writeFrac, llc, rng)
		}, nil
	case "keyvalue":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewKeyValue(p, rng)
		}, nil
	case "graph":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewGraphWalk(p, rng)
		}, nil
	case "mltrain":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewMLTrain(p, rng)
		}, nil
	case "webserver":
		return func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewWebServer(p, rng)
		}, nil
	case "micro":
		if wss <= 0 {
			return nil, fmt.Errorf("micro generator needs wss_pages")
		}
		return func(p int, rng *sim.RNG) workload.Generator {
			w := wss
			if w > p {
				w = p
			}
			return workload.NewNomadMicro(p, w, writeFrac, rng)
		}, nil
	default:
		return nil, fmt.Errorf("unknown generator %q", kind)
	}
}
