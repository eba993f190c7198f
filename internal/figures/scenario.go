// Package figures regenerates every table and figure of the paper's
// evaluation (§2.2 motivation figures 1–4, §5 figures 7–10 and tables
// 1–2) from the simulated substrate. Each FigN function returns the
// figure's data in a printable form; cmd/figures renders them as CSV or
// ASCII tables, and TestFiguresGolden pins their values.
package figures

import (
	"bytes"
	"fmt"

	"vulcan/internal/core"
	"vulcan/internal/fault"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/policy"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// PolicyNames is the single source of truth for the policy name space:
// the §5 comparison set in the paper's order, preceded by the "static"
// no-migration baseline. Sweeps (FigR, Fig10, Fig8), the vulcansim
// -policy flag, and NewPolicy all validate against this list.
var PolicyNames = []string{"static", "tpp", "memtis", "nomad", "vulcan"}

// ValidPolicy reports whether name is in PolicyNames.
func ValidPolicy(name string) bool {
	for _, p := range PolicyNames {
		if p == name {
			return true
		}
	}
	return false
}

// NewPolicy builds a tiering policy by name; every entry of PolicyNames
// is constructible, and nothing else is.
func NewPolicy(name string) system.Tiering {
	switch name {
	case "static":
		return system.NullPolicy{}
	case "tpp":
		return policy.NewTPP()
	case "memtis":
		return policy.NewMemtis()
	case "nomad":
		return policy.NewNomad()
	case "vulcan":
		return core.New(core.Options{})
	default:
		panic(fmt.Sprintf("figures: unknown policy %q (want one of %v)", name, PolicyNames))
	}
}

// ColocationConfig parameterizes the three-application study of §5.3.
type ColocationConfig struct {
	Policy   string
	Duration sim.Duration
	Seed     uint64
	// Staggered starts the apps at 0s/50s/110s as in Figure 9; otherwise
	// all three start together (Figure 10 steady-state comparison).
	Staggered bool
	// Scale divides the workload RSS and tier capacities once more on
	// top of mem.Scale, to keep unit tests fast. 1 = full scaled size.
	Scale int
	// SamplesPerThread overrides the system default when nonzero.
	SamplesPerThread int
	// Obs, when non-nil, receives the run's structured telemetry (see
	// internal/obs) — the figures runner's hookup for trace/metrics
	// export alongside the usual series CSV.
	Obs obs.Sink
	// Faults, when armed, injects the fault plan into the run (see
	// internal/fault). A nil or unarmed plan is byte-identical to a
	// fault-free run.
	Faults *fault.Plan
	// Prof, when non-nil, attributes every simulated cycle of the run to
	// a (subsystem, app, tier) account (see internal/obs/prof). Like Obs
	// it is observer-only: a nil profiler run is byte-identical.
	Prof *prof.Profiler
}

// AppResult summarizes one application after a co-location run.
type AppResult struct {
	Name     string
	Class    workload.Class
	Perf     float64 // mean normalized performance (1 = all-fast ideal)
	PerfCI   float64 // 95% confidence half-width over epochs
	FTHR     float64 // final smoothed fast-tier hit ratio
	MeanFTHR float64 // time-averaged FTHR
	Fast     int     // final fast-tier pages
	RSS      int
}

// ColocationResult is the outcome of one co-location run.
type ColocationResult struct {
	Policy string
	Apps   []AppResult
	// CFI is the FTHR-weighted Cumulative Fairness Index (Eq. 4) over the
	// measurement phase (after WarmupEpochs).
	CFI    float64
	System *system.System
}

// WarmupEpochs are excluded from the CFI integral: every policy needs a
// ramp to move working sets into place, and the paper's trials measure
// warmed-up systems.
const WarmupEpochs = 30

// measuredCFI recomputes Eq. 4 from the recorded allocation and FTHR
// series, skipping the warmup prefix.
func measuredCFI(sys *system.System) float64 {
	x := make([]float64, 0, len(sys.Apps()))
	for _, a := range sys.Apps() {
		alloc := sys.Recorder().Series(a.Name() + ".fast_pages")
		fthr := sys.Recorder().Series(a.Name() + ".fthr")
		sum := 0.0
		n := alloc.Len()
		if fthr.Len() < n {
			n = fthr.Len()
		}
		// Apps admitted late have shorter series; the warmup skip applies
		// to each app's own ramp, capped so short runs still measure.
		warmup := WarmupEpochs
		if warmup > n/2 {
			warmup = n / 2
		}
		for i := warmup; i < n; i++ {
			sum += alloc.At(i).V * fthr.At(i).V
		}
		x = append(x, sum)
	}
	return metrics.JainIndex(x)
}

// Table2Apps returns the paper's three applications (Table 2), optionally
// scaled down by extraScale and staggered as in Figure 9.
func Table2Apps(extraScale int, staggered bool) []workload.AppConfig {
	if extraScale < 1 {
		extraScale = 1
	}
	mc := workload.MemcachedConfig()
	pr := workload.PageRankConfig()
	ll := workload.LiblinearConfig()
	mc.RSSPages /= extraScale
	pr.RSSPages /= extraScale
	ll.RSSPages /= extraScale
	if staggered {
		pr.StartAt = sim.Time(50 * sim.Second)
		ll.StartAt = sim.Time(110 * sim.Second)
	}
	return []workload.AppConfig{mc, pr, ll}
}

// SamplesForScale returns the per-thread sample count that keeps
// *samples per page* constant across capacity scales, so profiling
// fidelity (what fraction of a footprint registers in miss-based
// profiles per epoch) does not depend on the chosen scale.
func SamplesForScale(extraScale int) int {
	if extraScale < 1 {
		extraScale = 1
	}
	s := 6400 / extraScale
	if s < 400 {
		s = 400
	}
	if s > 6400 {
		s = 6400
	}
	return s
}

// ColocationMachine returns the §5.1 machine, with tier capacities scaled
// by extraScale.
func ColocationMachine(extraScale int) machine.Config {
	cfg := machine.DefaultConfig()
	if extraScale > 1 {
		cfg.Tiers[mem.TierFast].CapacityPages /= extraScale
		cfg.Tiers[mem.TierSlow].CapacityPages /= extraScale
	}
	return cfg
}

// normalized resolves the config's zero-valued knobs to the §5
// defaults. Every entry point (fresh run, warm-up, resume) normalizes
// first so all three describe the same experiment.
func (cfg ColocationConfig) normalized() ColocationConfig {
	if cfg.Scale < 1 {
		cfg.Scale = 1
	}
	if cfg.Duration == 0 {
		cfg.Duration = 180 * sim.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.SamplesPerThread == 0 {
		cfg.SamplesPerThread = SamplesForScale(cfg.Scale)
	}
	return cfg
}

// systemConfig lowers the normalized figure config to a system config.
func (cfg ColocationConfig) systemConfig() system.Config {
	return system.Config{
		Machine:          ColocationMachine(cfg.Scale),
		Apps:             Table2Apps(cfg.Scale, cfg.Staggered),
		Policy:           NewPolicy(cfg.Policy),
		Seed:             cfg.Seed,
		SamplesPerThread: cfg.SamplesPerThread,
		Obs:              cfg.Obs,
		Faults:           cfg.Faults,
		Prof:             cfg.Prof,
	}
}

// summarize folds a finished run into the figure-facing result.
func summarize(policy string, sys *system.System) ColocationResult {
	res := ColocationResult{Policy: policy, System: sys, CFI: measuredCFI(sys)}
	for _, a := range sys.Apps() {
		perf := a.NormalizedPerf()
		res.Apps = append(res.Apps, AppResult{
			Name:     a.Name(),
			Class:    a.Class(),
			Perf:     perf.Mean(),
			PerfCI:   perf.CI95(),
			FTHR:     a.FTHR(),
			MeanFTHR: sys.Recorder().Series(a.Name() + ".fthr").Mean(),
			Fast:     a.FastPages(),
			RSS:      a.RSSMapped(),
		})
	}
	return res
}

// RunColocation executes the three-app co-location under the named
// policy and summarizes per-app performance and fairness.
func RunColocation(cfg ColocationConfig) ColocationResult {
	cfg = cfg.normalized()
	sys := system.New(cfg.systemConfig())
	sys.Run(cfg.Duration)
	return summarize(cfg.Policy, sys)
}

// warmEpochs returns how many of a co-location run's 1-second epochs
// the branch-from-snapshot sweeps share as a common warm-up: the
// standard measurement warm-up, capped at half the run so short test
// sweeps still measure something.
func warmEpochs(duration sim.Duration) int {
	total := int(duration / sim.Second)
	w := WarmupEpochs
	if w > total/2 {
		w = total / 2
	}
	return w
}

// WarmStart runs the scenario's first epochs under the
// placement-neutral "static" policy with chaos and telemetry disabled,
// and returns the checkpoint blob the sweep branches fan out from.
// Every branch of a sweep resumes from the same substrate state —
// identical page placements, RNG streams, and workload cursors — so
// policies are compared on exactly the same warmed-up footing and the
// warm-up cost is paid once per scenario instead of once per cell.
func WarmStart(cfg ColocationConfig, epochs int) []byte {
	cfg = cfg.normalized()
	// The warm-up must be independent of the branch axes: no policy
	// learning, no faults, no telemetry to replay.
	cfg.Policy = "static"
	cfg.Faults = nil
	cfg.Obs = nil
	cfg.Prof = nil
	sys := system.New(cfg.systemConfig())
	for i := 0; i < epochs; i++ {
		sys.RunEpoch()
	}
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		panic(fmt.Sprintf("figures: warm-start checkpoint: %v", err))
	}
	return buf.Bytes()
}

// RunColocationFrom resumes a WarmStart blob under cfg's policy and
// fault plan, runs the remaining simulated time, and summarizes. The
// blob must come from a WarmStart of the same scenario (duration, seed,
// scale, stagger).
func RunColocationFrom(blob []byte, cfg ColocationConfig) ColocationResult {
	cfg = cfg.normalized()
	sys, err := system.Resume(bytes.NewReader(blob), cfg.systemConfig())
	if err != nil {
		panic(fmt.Sprintf("figures: resume from warm start: %v", err))
	}
	if remaining := cfg.Duration - sim.Duration(sys.Now()); remaining > 0 {
		sys.Run(remaining)
	}
	return summarize(cfg.Policy, sys)
}
