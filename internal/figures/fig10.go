package figures

import (
	"fmt"
	"strings"

	"vulcan/internal/lab"
	"vulcan/internal/metrics"
	"vulcan/internal/sim"
)

// Fig10App is one application's cross-policy performance comparison.
type Fig10App struct {
	App string
	// PerfMean/PerfCI per policy, normalized to the lowest-performing
	// policy for this app (the paper's normalization).
	PerfMean map[string]float64
	PerfCI   map[string]float64
}

// Fig10Result is the full performance-and-fairness comparison.
type Fig10Result struct {
	Policies []string
	Apps     []Fig10App
	// CFIMean/CFICI per policy (Figure 10b).
	CFIMean map[string]float64
	CFICI   map[string]float64
	// Raw per-trial data for downstream analysis.
	RawPerf map[string]map[string]*metrics.Running // policy -> app -> stats
}

// Fig10 reproduces "Performance and fairness comparisons of Memcached,
// PageRank, and Liblinear between TPP, MEMTIS, NOMAD, and VULCAN": means
// over trials with 95% confidence intervals, performance normalized per
// app to the lowest-performing policy.
func Fig10(trials int, duration sim.Duration, scale int) Fig10Result {
	if trials < 1 {
		trials = 1
	}
	if duration == 0 {
		duration = 180 * sim.Second
	}
	policies := PolicyNames

	perf := make(map[string]map[string]*metrics.Running)
	cfi := make(map[string]*metrics.Running)
	for _, pol := range policies {
		perf[pol] = make(map[string]*metrics.Running)
		cfi[pol] = &metrics.Running{}
	}

	// Flatten the policy × trial grid (policy-major, matching the old
	// serial loop). Runs execute in parallel; the Running accumulators
	// are order-sensitive floating-point folds, so lab.Collect commits
	// each result serially in submission order — the accumulated bits
	// match a serial sweep exactly.
	type spec struct {
		pol   string
		trial int
	}
	var specs []spec
	for _, pol := range policies {
		for trial := 0; trial < trials; trial++ {
			specs = append(specs, spec{pol, trial})
		}
	}
	// Warm each trial's scenario up once under the static policy and
	// branch every policy's run from that snapshot: the trials stay
	// independent (own seeds), but within a trial all policies fork from
	// identical substrate state, and the warm-up cost is paid once per
	// trial instead of once per (policy, trial) cell.
	trialCfg := func(trial int) ColocationConfig {
		return ColocationConfig{
			Duration: duration,
			Seed:     uint64(trial)*31 + 1,
			Scale:    scale,
		}
	}
	warm := make([][]byte, trials)
	if w := warmEpochs(duration); w > 0 {
		lab.Collect(0, trials,
			func(trial int) []byte { return WarmStart(trialCfg(trial), w) },
			func(trial int, blob []byte) { warm[trial] = blob })
	}

	var appNames []string
	lab.Collect(0, len(specs),
		func(i int) ColocationResult {
			cfg := trialCfg(specs[i].trial)
			cfg.Policy = specs[i].pol
			if warm[specs[i].trial] == nil {
				return RunColocation(cfg)
			}
			return RunColocationFrom(warm[specs[i].trial], cfg)
		},
		func(i int, res ColocationResult) {
			pol := specs[i].pol
			cfi[pol].Add(res.CFI)
			for _, a := range res.Apps {
				r := perf[pol][a.Name]
				if r == nil {
					r = &metrics.Running{}
					perf[pol][a.Name] = r
				}
				r.Add(a.Perf)
			}
			if appNames == nil {
				for _, a := range res.Apps {
					appNames = append(appNames, a.Name)
				}
			}
		})

	out := Fig10Result{
		Policies: policies,
		CFIMean:  make(map[string]float64),
		CFICI:    make(map[string]float64),
		RawPerf:  perf,
	}
	for _, pol := range policies {
		out.CFIMean[pol] = cfi[pol].Mean()
		out.CFICI[pol] = cfi[pol].CI95()
	}
	for _, app := range appNames {
		// Normalize to the lowest-performing policy for this app.
		low := 0.0
		for i, pol := range policies {
			m := perf[pol][app].Mean()
			if i == 0 || m < low {
				low = m
			}
		}
		fa := Fig10App{
			App:      app,
			PerfMean: make(map[string]float64),
			PerfCI:   make(map[string]float64),
		}
		for _, pol := range policies {
			fa.PerfMean[pol] = perf[pol][app].Mean() / low
			fa.PerfCI[pol] = perf[pol][app].CI95() / low
		}
		out.Apps = append(out.Apps, fa)
	}
	return out
}

// RenderFig10 renders both panels.
func RenderFig10(r Fig10Result) string {
	var b strings.Builder
	b.WriteString("Figure 10(a): normalized performance (vs lowest policy per app, higher is better)\n")
	fmt.Fprintf(&b, "%-12s", "app")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, " %14s", pol)
	}
	b.WriteString("\n")
	for _, a := range r.Apps {
		fmt.Fprintf(&b, "%-12s", a.App)
		for _, pol := range r.Policies {
			fmt.Fprintf(&b, " %8.3f±%-5.3f", a.PerfMean[pol], a.PerfCI[pol])
		}
		b.WriteString("\n")
	}
	b.WriteString("Figure 10(b): FTHR-weighted cumulative fairness index (CFI, higher is better)\n")
	fmt.Fprintf(&b, "%-12s", "")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, " %14s", pol)
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "%-12s", "CFI")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, " %8.3f±%-5.3f", r.CFIMean[pol], r.CFICI[pol])
	}
	b.WriteString("\n")

	// Headline deltas (the paper's summary sentences).
	if v, ok := r.CFIMean["vulcan"]; ok {
		if m, ok2 := r.CFIMean["memtis"]; ok2 && m > 0 {
			fmt.Fprintf(&b, "Vulcan fairness vs Memtis: %+.1f%%  (paper: +52%%)\n", 100*(v/m-1))
		}
		if n, ok2 := r.CFIMean["nomad"]; ok2 && n > 0 {
			fmt.Fprintf(&b, "Vulcan fairness vs Nomad:  %+.1f%%  (paper: +86%%)\n", 100*(v/n-1))
		}
	}

	// Per-app significance of Vulcan's deltas (Welch's t-test at 5%).
	if vul, ok := r.RawPerf["vulcan"]; ok {
		b.WriteString("Significance of Vulcan's per-app deltas (Welch, p<0.05):\n")
		for _, a := range r.Apps {
			fmt.Fprintf(&b, "  %-12s", a.App)
			for _, pol := range r.Policies {
				if pol == "vulcan" {
					continue
				}
				base := r.RawPerf[pol][a.App]
				mark := "≈"
				if base != nil && vul[a.App] != nil && metrics.SignificantlyDifferent(vul[a.App], base) {
					if vul[a.App].Mean() > base.Mean() {
						mark = "+"
					} else {
						mark = "-"
					}
				}
				fmt.Fprintf(&b, " vs %s: %s ", pol, mark)
			}
			b.WriteString("\n")
		}
	}
	return b.String()
}

// CSVFig10 renders the result as CSV.
func CSVFig10(r Fig10Result) string {
	var b strings.Builder
	b.WriteString("metric,app,policy,mean,ci95\n")
	for _, a := range r.Apps {
		for _, pol := range r.Policies {
			fmt.Fprintf(&b, "perf,%s,%s,%.4f,%.4f\n", a.App, pol, a.PerfMean[pol], a.PerfCI[pol])
		}
	}
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, "cfi,,%s,%.4f,%.4f\n", pol, r.CFIMean[pol], r.CFICI[pol])
	}
	return b.String()
}
