package figures

import (
	"fmt"
	"strings"

	"vulcan/internal/fault"
	"vulcan/internal/lab"
	"vulcan/internal/sim"
)

// DefaultFaultRates is the resilience sweep of FigR: a fault-free
// baseline column plus three escalating chaos levels (the canonical
// light/moderate/heavy profiles of internal/fault).
var DefaultFaultRates = []float64{0, 0.02, 0.05, 0.10}

// FigRCell is one (policy, fault-rate) grid point.
type FigRCell struct {
	Rate float64
	// Perf is the mean normalized performance across the three apps
	// (1 = all-fast ideal); CFI is the cumulative fairness index.
	Perf float64
	CFI  float64
	// Retention columns: this cell's Perf/CFI relative to the same
	// policy's fault-free column (1 = no degradation under chaos).
	PerfRetention float64
	CFIRetention  float64
	// Resilience machinery totals across all apps.
	Injected  uint64 // faults fired by the injector, all kinds
	Retried   uint64 // busy pages resubmitted by the retriers
	Recovered uint64 // retries that landed
	GaveUp    uint64 // pages abandoned after max attempts
}

// FigRResult is the fault-rate × policy resilience comparison.
type FigRResult struct {
	Policies []string
	Rates    []float64
	// Cells[policy][i] corresponds to Rates[i].
	Cells map[string][]FigRCell
}

// FigR runs the resilience experiment: every comparison policy under an
// escalating fault-injection sweep, measuring how much performance and
// fairness each retains relative to its own fault-free baseline. rates
// must include 0 (the retention denominator); nil selects
// DefaultFaultRates. Runs execute on the lab pool; results commit in
// submission order so the output is byte-identical at any worker count.
//
// The scenario is warmed up once under the static policy, checkpointed,
// and every (policy, rate) cell branches from that snapshot: all cells
// share identical warmed-up substrate state, and the warm-up epochs are
// simulated once instead of |policies|×|rates| times. Faults therefore
// act only on the measured phase, for every cell alike.
func FigR(duration sim.Duration, scale int, seed uint64, rates []float64) FigRResult {
	if duration == 0 {
		duration = 60 * sim.Second
	}
	if seed == 0 {
		seed = 1
	}
	if len(rates) == 0 {
		rates = DefaultFaultRates
	}

	type spec struct {
		pol  string
		rate float64
	}
	var specs []spec
	for _, pol := range PolicyNames {
		for _, rate := range rates {
			specs = append(specs, spec{pol, rate})
		}
	}

	base := ColocationConfig{Duration: duration, Seed: seed, Scale: scale}
	var warm []byte
	if w := warmEpochs(duration); w > 0 {
		warm = WarmStart(base, w)
	}

	out := FigRResult{
		Policies: PolicyNames,
		Rates:    rates,
		Cells:    make(map[string][]FigRCell),
	}
	lab.Collect(0, len(specs),
		func(i int) ColocationResult {
			cfg := base
			cfg.Policy = specs[i].pol
			cfg.Faults = fault.PlanAtRate(specs[i].rate)
			return RunColocationFrom(warm, cfg)
		},
		func(i int, res ColocationResult) {
			cell := FigRCell{Rate: specs[i].rate, CFI: res.CFI}
			for _, a := range res.Apps {
				cell.Perf += a.Perf
			}
			if len(res.Apps) > 0 {
				cell.Perf /= float64(len(res.Apps))
			}
			if inj := res.System.FaultInjector(); inj != nil {
				for _, n := range inj.Counts() {
					cell.Injected += n
				}
			}
			for _, a := range res.System.Apps() {
				if a.Retry == nil {
					continue
				}
				st := a.Retry.Stats()
				cell.Retried += st.Retried
				cell.Recovered += st.Recovered
				cell.GaveUp += st.GaveUp
			}
			out.Cells[specs[i].pol] = append(out.Cells[specs[i].pol], cell)
		})

	// Retention vs each policy's own zero-rate column.
	for _, pol := range PolicyNames {
		cells := out.Cells[pol]
		var base FigRCell
		for _, c := range cells {
			if c.Rate <= 0 { // rates are non-negative; <=0 means the fault-free column
				base = c
				break
			}
		}
		for i := range cells {
			if base.Perf > 0 {
				cells[i].PerfRetention = cells[i].Perf / base.Perf
			}
			if base.CFI > 0 {
				cells[i].CFIRetention = cells[i].CFI / base.CFI
			}
		}
	}
	return out
}

// RenderFigR renders the resilience comparison as ASCII tables.
func RenderFigR(r FigRResult) string {
	var b strings.Builder
	b.WriteString("Figure R: resilience under fault injection (retention vs own fault-free run)\n")
	b.WriteString("Performance retention (mean normalized perf, 1.000 = no degradation)\n")
	fmt.Fprintf(&b, "%-10s", "policy")
	for _, rate := range r.Rates {
		fmt.Fprintf(&b, " rate=%-6.2f", rate)
	}
	b.WriteString("\n")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, "%-10s", pol)
		for _, c := range r.Cells[pol] {
			fmt.Fprintf(&b, " %10.3f", c.PerfRetention)
		}
		b.WriteString("\n")
	}
	b.WriteString("Fairness retention (CFI vs own fault-free run)\n")
	fmt.Fprintf(&b, "%-10s", "policy")
	for _, rate := range r.Rates {
		fmt.Fprintf(&b, " rate=%-6.2f", rate)
	}
	b.WriteString("\n")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, "%-10s", pol)
		for _, c := range r.Cells[pol] {
			fmt.Fprintf(&b, " %10.3f", c.CFIRetention)
		}
		b.WriteString("\n")
	}
	b.WriteString("Resilience machinery (injected/retried/recovered/gave-up per cell)\n")
	for _, pol := range r.Policies {
		fmt.Fprintf(&b, "%-10s", pol)
		for _, c := range r.Cells[pol] {
			fmt.Fprintf(&b, " %d/%d/%d/%d", c.Injected, c.Retried, c.Recovered, c.GaveUp)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSVFigR renders the result as CSV.
func CSVFigR(r FigRResult) string {
	var b strings.Builder
	b.WriteString("policy,rate,perf,cfi,perf_retention,cfi_retention,injected,retried,recovered,gaveup\n")
	for _, pol := range r.Policies {
		for _, c := range r.Cells[pol] {
			fmt.Fprintf(&b, "%s,%.2f,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d\n",
				pol, c.Rate, c.Perf, c.CFI, c.PerfRetention, c.CFIRetention,
				c.Injected, c.Retried, c.Recovered, c.GaveUp)
		}
	}
	return b.String()
}
