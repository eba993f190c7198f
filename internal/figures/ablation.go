package figures

import (
	"fmt"
	"strings"

	"vulcan/internal/core"
	"vulcan/internal/lab"
	"vulcan/internal/sim"
)

// AblationRow compares full Vulcan against one disabled mechanism.
type AblationRow struct {
	Name string
	// Mean normalized performance across the three apps and CFI, full
	// system vs ablated.
	FullPerf    float64
	AblatedPerf float64
	FullCFI     float64
	AblatedCFI  float64
	// Migration-thread cycles consumed over the run: the direct cost of
	// the mechanism (a disabled optimization shows up here even when
	// generous budgets hide it from application throughput).
	FullMigCycles    float64
	AblatedMigCycles float64
}

// AblationSpecs enumerates the design choices DESIGN.md calls out, one
// per Vulcan innovation.
var AblationSpecs = []struct {
	Name string
	Opts core.Options
}{
	{"cbfrp->uniform", core.Options{DisableCBFRP: true}},
	{"no-mlfq", core.Options{DisableMLFQ: true}},
	{"no-biased-queues", core.Options{DisableBiasedQueues: true}},
	{"no-per-thread-pt", core.Options{DisablePerThreadPT: true}},
	{"no-optimized-prep", core.Options{DisableOptimizedPrep: true}},
	{"no-shadowing", core.Options{DisableShadowing: true}},
}

// Ablations runs the co-location study with each of Vulcan's mechanisms
// individually disabled.
func Ablations(duration sim.Duration, scale int, seed uint64) []AblationRow {
	if duration == 0 {
		duration = 120 * sim.Second
	}
	type ablRun struct {
		perf, cfi, migCycles float64
	}
	run := func(opts core.Options) ablRun {
		// Construct the (stateful) policy inside the worker so no
		// instance is shared across goroutines.
		res := runColocation(core.New(opts), nil, ColocationConfig{Duration: duration, Seed: seed, Scale: scale})
		var r ablRun
		sum := 0.0
		for _, a := range res.Apps {
			sum += a.Perf
		}
		for _, a := range res.System.StartedApps() {
			r.migCycles += a.Async.Stats().CyclesUsed
		}
		r.perf = sum / float64(len(res.Apps))
		r.cfi = res.CFI
		return r
	}
	// Index 0 is full Vulcan, 1..N the ablated variants — all
	// independent runs, fanned out on the lab pool.
	runs := lab.Map(0, 1+len(AblationSpecs), func(i int) ablRun {
		if i == 0 {
			return run(core.Options{})
		}
		return run(AblationSpecs[i-1].Opts)
	})
	full := runs[0]
	var rows []AblationRow
	for i, spec := range AblationSpecs {
		abl := runs[i+1]
		rows = append(rows, AblationRow{
			Name:             spec.Name,
			FullPerf:         full.perf,
			AblatedPerf:      abl.perf,
			FullCFI:          full.cfi,
			AblatedCFI:       abl.cfi,
			FullMigCycles:    full.migCycles,
			AblatedMigCycles: abl.migCycles,
		})
	}
	return rows
}

// RenderAblations renders the comparison.
func RenderAblations(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("Ablations: full Vulcan vs individually disabled mechanisms\n")
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s %14s %10s\n",
		"ablation", "perf", "Δperf", "CFI", "ΔCFI", "mig Gcycles", "Δmig")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-20s %10.3f %+9.1f%% %10.3f %+9.1f%% %14.2f %+9.1f%%\n",
			r.Name, r.AblatedPerf, 100*(r.AblatedPerf/r.FullPerf-1),
			r.AblatedCFI, 100*(r.AblatedCFI/r.FullCFI-1),
			r.AblatedMigCycles/1e9, 100*(r.AblatedMigCycles/r.FullMigCycles-1))
	}
	return b.String()
}
