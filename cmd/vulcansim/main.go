// Command vulcansim runs tiered-memory co-location experiments and
// reports per-application performance, fast-tier hit ratios, allocation,
// and the FTHR-weighted fairness index.
//
// Usage:
//
//	vulcansim -policy vulcan -seconds 180
//	vulcansim -policy memtis -apps memcached,liblinear -seconds 120
//	vulcansim -policy vulcan -staggered -series timeline.csv
//	vulcansim -policy vulcan -seeds 5 -parallel 4   # seeds 1..5 in parallel
//	vulcansim -policy vulcan -faults moderate       # deterministic chaos
//	vulcansim -policy tpp -fault-rate 0.08 -fault-seed 42
//	vulcansim -fleet 8 -scheduler fairness -seconds 60   # multi-host fleet
//	vulcansim -config scenario.json -seeds 3
//
// Every run is a scenario (internal/scenario). It is either a JSON file
// (-config) or the one the flags define: -policy, -apps, -scale, -seed,
// -seconds and -staggered (arrivals at 0/55/110 s) fill the scenario
// fields, the fault flags a faults block, and -fleet with -scheduler a
// fleet block. scenario.Resolve validates it and the run takes one of
// two paths.
//
// Single host: -seeds N runs seeds seed..seed+N-1 as independent
// simulations on a worker pool (-parallel, default GOMAXPROCS), renders
// each to buffers and commits reports and artifacts in seed order, so
// output is byte-identical at any -parallel value. With N > 1 every
// artifact gets a ".seedK" suffix before its extension.
//
// Fleet (-fleet N, or a file's "fleet" block): N hosts step in lockstep
// under a placement scheduler (binpack, fairness or vulcan) and -seconds
// counts one-second fleet epochs. A flag-defined fleet runs 2×N jobs
// cycling the three presets (memcached00, pagerank01, liblinear02, ...)
// with staggered arrivals and a few departures, rebalancing every 5
// epochs with a move budget of 2. The report is fleet-wide (fleet CFI,
// per-host spread, migration totals). Fleet runs support -json,
// -checkpoint-out and -resume only.
//
// Flag-defined runs simulate figures.SamplesForScale(-scale) accesses
// per thread; scenario files use the system default of 400. The two
// agree at -scale 16 and above.
//
// Fault injection (-faults off|light|moderate|heavy, or -fault-rate R
// for the canonical plan at rate R) is clock-keyed and seed-derived:
// the same flags replay the same faults byte for byte. -fault-seed
// varies the fault schedule without touching the workload seed. An
// armed flag plan overrides a -config file's faults block.
//
// Cost profiling (-costprofile, -cost-csv) attributes every simulated
// cycle to a (subsystem, app, tier) account and exports the result as a
// go-tool-pprof-readable profile (`go tool pprof -http` draws its flame
// graph) or a per-epoch breakdown CSV (see internal/obs/prof). The
// artifacts are deterministic: byte-identical across replays and at any
// -parallel value. The profiler only observes: a run's report, series,
// trace and metrics bytes are the same with or without it.
// -cpuprofile/-memprofile profile the simulator process itself
// (wall-clock plane) with runtime/pprof.
//
// Checkpoint/restore (-checkpoint-out, -checkpoint-every, -resume):
//
//	vulcansim -seconds 120 -checkpoint-out run.ckpt        # snapshot the end state
//	vulcansim -seconds 120 -checkpoint-out run.ckpt -checkpoint-every 30
//	vulcansim -resume run.ckpt -seconds 60                 # 60 MORE simulated seconds
//	vulcansim -resume run.ckpt -seconds 60 -faults heavy   # branch into chaos
//
// A resumed run continued to the original end time reproduces the
// uninterrupted run's report, series, trace and metrics byte for byte
// when the remaining flags match. The policy and fault flags may differ
// from the checkpointed run — that branches a new experiment from the
// snapshot instead (the restored policy starts cold). Checkpointing is
// single-run only: it excludes -seeds > 1. Interim checkpoints follow
// the rolling-family naming (run.ckpt -> run.t030.ckpt) and
// -checkpoint-retain keeps only the newest N of them (0 = all).
//
// Journal replay (-replay-journal run.journal) rebuilds a vulcand
// serving session from its command journal through the batch pipeline:
// the journal header carries the scenario, every journaled command
// re-applies at its epoch boundary, and the report, -trace-out and
// -metrics-out artifacts are byte-identical to what the live daemon
// streamed — at any -parallel value. Flags that would shape the
// scenario or filter the streams (-obs-filter) are usage errors.
//
// An invalid command line exits 2; a run that fails exits 1.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"vulcan"
	"vulcan/internal/checkpoint"
	"vulcan/internal/cluster"
	"vulcan/internal/fault"
	"vulcan/internal/figures"
	"vulcan/internal/lab"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/scenario"
	"vulcan/internal/serve"
	"vulcan/internal/sim"
)

// usageError marks an invalid command line; main exits 2 on it.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// costFlags bundles the two simulated-cost artifact paths.
type costFlags struct {
	pb  string // gzipped pprof protobuf
	csv string // per-epoch breakdown CSV
}

// wanted reports whether any cost artifact was requested.
func (c costFlags) wanted() bool { return c.pb != "" || c.csv != "" }

// options is the parsed command line.
type options struct {
	policy, apps           string
	seconds, scale         int
	seed                   uint64
	staggered              bool
	config                 string
	json                   bool
	series, trace, metrics string
	obsFilter              string
	seeds, parallel        int
	faults                 string
	faultRate              float64
	faultSeed              uint64
	fleet                  int
	scheduler              string
	ckptOut                string
	ckptEvery, ckptRetain  int
	resume, replay         string
	cost                   costFlags
	cpuProfile, memProfile string
}

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "vulcansim:", err)
	if errors.As(err, new(usageError)) {
		os.Exit(2)
	}
	os.Exit(1)
}

// run executes one vulcansim command line, writing reports to stdout and
// progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	var o options
	fs := newFlagSet(&o, stderr)
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return nil
		}
		return usageError{err}
	}
	if err := o.validate(); err != nil {
		return err
	}
	lab.SetDefaultWorkers(o.parallel)

	// Plane-B self-profiling of the simulator process.
	if o.cpuProfile != "" {
		stop, err := prof.StartCPUProfile(o.cpuProfile)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "vulcansim:", err)
				return
			}
			fmt.Fprintf(stderr, "cpu profile written to %s\n", o.cpuProfile)
		}()
	}
	if o.memProfile != "" {
		defer func() {
			if err := prof.WriteHeapProfile(o.memProfile); err != nil {
				fmt.Fprintln(stderr, "vulcansim:", err)
				return
			}
			fmt.Fprintf(stderr, "heap profile written to %s\n", o.memProfile)
		}()
	}

	if o.replay != "" {
		return runReplayJournal(&o, stdout, stderr)
	}
	file, err := o.scenarioFile()
	if err != nil {
		return err
	}
	parsed, err := scenario.Resolve(file)
	if err != nil {
		if o.config == "" {
			return usageError{err}
		}
		return fmt.Errorf("%s: %w", o.config, err)
	}
	if parsed.Arrivals != nil {
		// Only a serving session drives churn; a batch run would
		// silently simulate the static apps alone.
		return usagef("%s: the arrivals block runs only under vulcand (vulcand -config %s -socket ... -journal ...)", o.config, o.config)
	}
	samples := 0 // the system default, as for every scenario file
	if o.config == "" {
		samples = figures.SamplesForScale(o.scale)
	}
	if parsed.Fleet != nil {
		if o.seeds > 1 || o.series != "" || o.trace != "" || o.metrics != "" ||
			o.obsFilter != "" || o.cost.wanted() || o.ckptEvery > 0 {
			return usagef("fleet runs support -json, -resume and -checkpoint-out only " +
				"(no -seeds, -series, trace/metrics/-obs-filter, cost artifacts or -checkpoint-every)")
		}
		return runFleet(&o, parsed, samples, stdout, stderr)
	}
	return runHosts(&o, parsed, samples, stdout, stderr)
}

// newFlagSet binds every vulcansim flag to o.
func newFlagSet(o *options, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("vulcansim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.policy, "policy", "vulcan", "tiering policy: "+strings.Join(figures.PolicyNames, ", "))
	fs.StringVar(&o.apps, "apps", "memcached,pagerank,liblinear", "comma-separated apps (memcached, pagerank, liblinear)")
	fs.IntVar(&o.seconds, "seconds", 120, "simulated seconds")
	fs.IntVar(&o.scale, "scale", 4, "extra capacity scale divisor (1 = full 1/64 scale)")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.BoolVar(&o.staggered, "staggered", false, "stagger app arrivals at 0s/55s/110s (Figure 9 style)")
	fs.StringVar(&o.series, "series", "", "write per-epoch time series CSV to this file")
	fs.StringVar(&o.config, "config", "", "load the scenario from a JSON file (see internal/scenario) instead of flags")
	fs.BoolVar(&o.json, "json", false, "emit the final report as JSON")
	fs.StringVar(&o.trace, "trace-out", "", "write a Chrome trace-event JSON file (open in Perfetto / chrome://tracing)")
	fs.StringVar(&o.metrics, "metrics-out", "", "write per-epoch metric samples as CSV to this file")
	fs.StringVar(&o.obsFilter, "obs-filter", "", "comma-separated event types to record (default all; see internal/obs)")
	fs.IntVar(&o.seeds, "seeds", 1, "run this many consecutive seeds (seed, seed+1, ...) as independent simulations")
	fs.IntVar(&o.parallel, "parallel", 0, "worker goroutines for multi-seed and fleet runs (0 = GOMAXPROCS); output is byte-identical at any value")
	fs.StringVar(&o.faults, "faults", "", "fault-injection profile: off, light, moderate, heavy")
	fs.Float64Var(&o.faultRate, "fault-rate", 0, "inject the canonical all-kinds fault plan at this rate (0 = off; excludes -faults)")
	fs.Uint64Var(&o.faultSeed, "fault-seed", 0, "vary the fault schedule independently of -seed (needs -faults or -fault-rate)")
	fs.IntVar(&o.fleet, "fleet", 0, "run a fleet of this many hosts instead of one machine; -seconds counts fleet epochs of 1s")
	fs.StringVar(&o.scheduler, "scheduler", "binpack", "fleet placement scheduler: "+strings.Join(cluster.Schedulers(), ", ")+" (needs -fleet)")
	fs.StringVar(&o.ckptOut, "checkpoint-out", "", "write a checkpoint blob of the final simulation state to this file")
	fs.IntVar(&o.ckptEvery, "checkpoint-every", 0, "also checkpoint every N simulated seconds (needs -checkpoint-out; interim files get a .tNNN suffix)")
	fs.IntVar(&o.ckptRetain, "checkpoint-retain", 0, "keep only the newest N interim checkpoints (0 = all; needs -checkpoint-every)")
	fs.StringVar(&o.resume, "resume", "", "resume from a checkpoint blob; -seconds then counts additional simulated time")
	fs.StringVar(&o.replay, "replay-journal", "", "replay a vulcand command journal through the batch pipeline and exit")
	fs.StringVar(&o.cost.pb, "costprofile", "", "write the simulated-cycle cost profile as gzipped pprof protobuf (go tool pprof readable)")
	fs.StringVar(&o.cost.csv, "cost-csv", "", "write the per-epoch cost breakdown as CSV")
	fs.StringVar(&o.cpuProfile, "cpuprofile", "", "write a CPU profile of the simulator process itself to this file")
	fs.StringVar(&o.memProfile, "memprofile", "", "write a heap profile of the simulator process itself to this file (taken after the run)")
	return fs
}

// validate rejects flag values and combinations no run accepts. Shape
// flags are checked only when they define the scenario, because
// scenario.Resolve would silently default a zero.
func (o *options) validate() error {
	switch {
	case o.seeds < 1:
		return usagef("-seeds %d: need at least one seed", o.seeds)
	case o.ckptEvery < 0 || o.ckptRetain < 0:
		return usagef("-checkpoint-every and -checkpoint-retain must be >= 0")
	case o.ckptEvery > 0 && o.ckptOut == "":
		return usagef("-checkpoint-every needs -checkpoint-out")
	case o.ckptRetain > 0 && o.ckptEvery == 0:
		return usagef("-checkpoint-retain needs -checkpoint-every")
	case (o.ckptOut != "" || o.resume != "") && o.seeds > 1:
		return usagef("-checkpoint-out/-resume are single-run flags; they exclude -seeds > 1")
	case o.fleet > 0 && o.config != "":
		return usagef("-fleet and -config both define the scenario; use the file's fleet block")
	}
	if o.obsFilter != "" {
		if _, err := obs.ParseFilter(o.obsFilter); err != nil {
			return usagef("-obs-filter: %v", err)
		}
	}
	if o.replay != "" {
		// The journal header IS the scenario; flags that would define or
		// alter one are contradictions, not overrides. A filtered replay
		// could not equal the live streams, so -obs-filter is one too.
		if o.config != "" || o.fleet > 0 || o.seeds > 1 || o.series != "" ||
			o.cost.wanted() || o.faultsBlock() != nil || o.ckptOut != "" || o.resume != "" ||
			o.obsFilter != "" {
			return usagef("-replay-journal replays the journal's own scenario: it supports -json, -trace-out, -metrics-out and -parallel only")
		}
		return nil
	}
	if o.config == "" {
		switch {
		case o.scale < 1:
			return usagef("-scale %d: must be >= 1", o.scale)
		case o.seconds < 1:
			return usagef("-seconds %d: must be >= 1", o.seconds)
		case o.seed < 1:
			return usagef("-seed %d: seeds start at 1", o.seed)
		}
	}
	return nil
}

// faultsBlock lowers the fault flags to a scenario faults block; nil
// when they validly select no plan (unset, or a bare -faults off), so a
// -config file's own block stands.
func (o *options) faultsBlock() *scenario.Faults {
	if plan, err := fault.ParseProfile(o.faults); plan == nil && err == nil && o.faultRate == 0 && o.faultSeed == 0 {
		return nil
	}
	return &scenario.Faults{Profile: o.faults, Rate: o.faultRate, Seed: o.faultSeed}
}

// scenarioFile returns the experiment to run: the -config file, or the
// one the flags define.
func (o *options) scenarioFile() (scenario.File, error) {
	var f scenario.File
	if o.config != "" {
		in, err := os.Open(o.config)
		if err != nil {
			return f, err
		}
		defer in.Close()
		if f, err = scenario.LoadFile(in); err != nil {
			return f, fmt.Errorf("%s: %w", o.config, err)
		}
	} else {
		f = scenario.File{Policy: o.policy, Seconds: o.seconds, Seed: o.seed, Scale: o.scale}
		if o.fleet > 0 {
			f.Apps = fleetJobs(o.fleet)
			f.Fleet = &scenario.Fleet{Hosts: o.fleet, Scheduler: o.scheduler, RebalanceEvery: 5, MoveBudget: 2}
		} else {
			for i, name := range strings.Split(o.apps, ",") {
				a := scenario.App{Preset: strings.TrimSpace(name)}
				if o.staggered {
					a.StartAtS = 55 * i
				}
				f.Apps = append(f.Apps, a)
			}
		}
	}
	if fb := o.faultsBlock(); fb != nil {
		f.Faults = fb
	}
	return f, nil
}

// fleetJobs is the flag-defined fleet's offered load: two jobs per host
// cycling the presets, arriving over the first four epochs, with every
// fifth job departing eight epochs after it arrives — so every scheduler
// faces the same mix.
func fleetJobs(hosts int) []scenario.App {
	presets := []string{"memcached", "pagerank", "liblinear"}
	var apps []scenario.App
	for i := 0; i < 2*hosts; i++ {
		p := presets[i%len(presets)]
		a := scenario.App{Preset: p, Name: fmt.Sprintf("%s%02d", p, i), StartAtS: i % 4}
		if i%5 == 4 {
			a.StopAtS = a.StartAtS + 8
		}
		apps = append(apps, a)
	}
	return apps
}

// artifact is one rendered export awaiting its ordered commit.
type artifact struct {
	path, what string
	data       []byte
}

// seedRun is one single-host run's rendered output.
type seedRun struct {
	report    []byte
	artifacts []artifact
	err       error
}

// runHosts is the single-host path: one independent simulation per seed
// on the lab pool, committed to stdout and disk serially in seed order.
func runHosts(o *options, parsed *scenario.Parsed, samples int, stdout, stderr io.Writer) error {
	secs := int(parsed.Duration / sim.Duration(sim.Second))
	runs := lab.Map(0, o.seeds, func(i int) seedRun {
		return runSeed(o, parsed, samples, uint64(i), secs, stderr)
	})
	for i, r := range runs {
		if r.err != nil {
			return r.err
		}
		seed := parsed.Seed + uint64(i)
		if o.seeds > 1 && !o.json {
			fmt.Fprintf(stdout, "### seed %d\n", seed)
		}
		if _, err := stdout.Write(r.report); err != nil {
			return err
		}
		for _, a := range r.artifacts {
			path := a.path
			if o.seeds > 1 {
				path = seedPath(path, seed)
			}
			if err := os.WriteFile(path, a.data, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "%s written to %s\n", a.what, path)
		}
	}
	return nil
}

// runSeed builds (or resumes) the system for seed offset i with its own
// policy, recorder and cost profiler, runs it, and renders the report
// and every requested artifact.
func runSeed(o *options, parsed *scenario.Parsed, samples int, i uint64, secs int, stderr io.Writer) (out seedRun) {
	rec, err := buildRecorder(o.trace, o.metrics, o.obsFilter)
	if err != nil {
		return seedRun{err: err}
	}
	p := buildCostProfiler(o.cost)
	cfg := parsed.SystemConfig(samples)
	cfg.Seed += i
	cfg.Prof = p
	if rec != nil {
		cfg.Obs = rec
	}
	sys, err := runSystem(cfg, secs, o, stderr)
	if err != nil {
		return seedRun{err: err}
	}
	render := func(write func(io.Writer) error) []byte {
		var b bytes.Buffer
		if out.err == nil {
			out.err = write(&b)
		}
		return b.Bytes()
	}
	if o.json {
		out.report = render(sys.Report().WriteJSON)
	} else {
		out.report = render(sys.Report().WriteText)
	}
	for _, a := range []struct {
		path, what string
		write      func(io.Writer) error
	}{
		{o.series, "time series", sys.Recorder().WriteCSV},
		{o.trace, "chrome trace", rec.WriteChromeTrace},
		{o.metrics, "metric samples", rec.WriteMetricsCSV},
		{o.cost.pb, "cost profile", p.WritePprof},
		{o.cost.csv, "cost breakdown", p.WriteBreakdownCSV},
	} {
		if a.path != "" {
			out.artifacts = append(out.artifacts, artifact{a.path, a.what, render(a.write)})
		}
	}
	return out
}

// runSystem builds (or resumes) the system and advances it secs of
// simulated time, writing interim and final checkpoints as requested.
// Checkpoints happen on epoch boundaries, which whole-second steps
// align with (the default epoch is 1s).
func runSystem(cfg vulcan.Config, secs int, o *options, stderr io.Writer) (*vulcan.System, error) {
	var sys *vulcan.System
	if o.resume != "" {
		f, err := os.Open(o.resume)
		if err != nil {
			return nil, err
		}
		sys, err = vulcan.Resume(f, cfg)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("resume %s: %w", o.resume, err)
		}
		fmt.Fprintf(stderr, "resumed from %s at t=%ds\n", o.resume, simSeconds(sys))
	} else {
		sys = vulcan.NewSystem(cfg)
	}
	step := secs
	if o.ckptEvery > 0 {
		step = o.ckptEvery
	}
	for done := 0; done < secs; {
		n := min(step, secs-done)
		sys.Run(vulcan.Duration(n) * vulcan.Second)
		if done += n; done == secs {
			break
		}
		if err := writeCheckpoint(sys, checkpoint.RollingPath(o.ckptOut, simSeconds(sys)), stderr); err != nil {
			return nil, err
		}
		if _, err := checkpoint.PruneRolling(o.ckptOut, o.ckptRetain); err != nil {
			return nil, fmt.Errorf("prune checkpoints: %w", err)
		}
	}
	if o.ckptOut != "" {
		if err := writeCheckpoint(sys, o.ckptOut, stderr); err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// runFleet is the fleet path: the scenario's hosts stepped secs fleet
// epochs, with optional fleet checkpoint/resume.
func runFleet(o *options, parsed *scenario.Parsed, samples int, stdout, stderr io.Writer) error {
	cfg := parsed.Fleet.ClusterConfig(parsed, sim.Second, samples)
	var f *cluster.Fleet
	if o.resume != "" {
		in, err := os.Open(o.resume)
		if err != nil {
			return err
		}
		f, err = cluster.Resume(in, cfg)
		in.Close()
		if err != nil {
			return fmt.Errorf("resume %s: %w", o.resume, err)
		}
		fmt.Fprintf(stderr, "resumed fleet from %s at epoch %d\n", o.resume, f.Epoch())
	} else {
		var err error
		if f, err = cluster.New(cfg); err != nil {
			return err
		}
	}
	if err := f.Run(int(parsed.Duration / sim.Duration(sim.Second))); err != nil {
		return err
	}
	if o.ckptOut != "" {
		if err := writeArtifact(o.ckptOut, "fleet checkpoint", f.Checkpoint, io.Discard); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "fleet checkpoint written to %s (epoch %d)\n", o.ckptOut, f.Epoch())
	}
	if o.json {
		return f.Report().WriteJSON(stdout)
	}
	return f.Report().WriteText(stdout)
}

// runReplayJournal rebuilds a vulcand serving run from its command
// journal in batch mode and renders the same artifacts the daemon
// streamed.
func runReplayJournal(o *options, stdout, stderr io.Writer) error {
	s, err := serve.Replay(o.replay)
	if err != nil {
		return err
	}
	if err := s.Run(); err != nil {
		return err
	}
	if err := s.WriteReport(stdout, o.json); err != nil {
		return err
	}
	if o.trace != "" {
		if err := writeArtifact(o.trace, "chrome trace", s.WriteTrace, stderr); err != nil {
			return err
		}
	}
	if o.metrics != "" {
		return writeArtifact(o.metrics, "metric samples", s.WriteMetrics, stderr)
	}
	return nil
}

// simSeconds returns the simulation clock in whole simulated seconds.
func simSeconds(sys *vulcan.System) int {
	return int(sim.Duration(sys.Now()) / sim.Second)
}

// writeCheckpoint serializes the full simulation state to path.
func writeCheckpoint(sys *vulcan.System, path string, stderr io.Writer) error {
	if err := writeArtifact(path, "checkpoint", sys.Checkpoint, io.Discard); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "checkpoint written to %s (t=%ds)\n", path, simSeconds(sys))
	return nil
}

// writeArtifact creates path and streams one exporter's output into it.
func writeArtifact(path, what string, write func(io.Writer) error, stderr io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s %s: %w", what, path, err)
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "%s written to %s\n", what, path)
	return nil
}

// seedPath derives a per-seed artifact path by inserting the seed
// before the extension: trace.json -> trace.seed7.json.
func seedPath(path string, seed uint64) string {
	ext := filepath.Ext(path)
	return fmt.Sprintf("%s.seed%d%s", strings.TrimSuffix(path, ext), seed, ext)
}

// buildRecorder returns a telemetry recorder when any -trace-out,
// -metrics-out or -obs-filter flag asks for one, nil otherwise (so the
// simulation pays nothing for telemetry it will not export). An
// -obs-filter naming an unknown event type is rejected with the list of
// known types.
func buildRecorder(traceOut, metricsOut, obsFilter string) (*obs.Recorder, error) {
	if traceOut == "" && metricsOut == "" && obsFilter == "" {
		return nil, nil
	}
	rec := obs.NewRecorder()
	if obsFilter != "" {
		filter, err := obs.ParseFilter(obsFilter)
		if err != nil {
			return nil, fmt.Errorf("-obs-filter: %w", err)
		}
		rec.SetFilter(filter)
	}
	return rec, nil
}

// buildCostProfiler returns a cycle-attribution profiler when any cost
// artifact flag asks for one, nil otherwise — a nil profiler keeps the
// simulation byte-identical to an uninstrumented run.
func buildCostProfiler(cost costFlags) *prof.Profiler {
	if !cost.wanted() {
		return nil
	}
	return prof.New()
}
