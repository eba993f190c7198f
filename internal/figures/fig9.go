package figures

import (
	"fmt"
	"strings"

	"vulcan/internal/sim"
)

// Fig9AppSeries carries one application's dynamic traces under Vulcan.
type Fig9AppSeries struct {
	App    string
	Times  []sim.Time
	Alloc  []float64 // fast-tier quota (pages), panel (a)
	Fast   []float64 // measured fast residency, panel (a)
	FTHR   []float64 // panel (b)
	GPT    []float64 // panel (c)
	Demand []float64
}

// Fig9Result is the full staggered-arrival study.
type Fig9Result struct {
	Apps []Fig9AppSeries
}

// Fig9 reproduces "Dynamic memory allocation and measurement of memory
// tiering performance of co-located workloads": Memcached starts at 0s,
// PageRank at 50s, Liblinear at 110s, all managed by Vulcan; the traces
// show CBFRP rebalancing quotas, FTHR tracking, and GPT shifting as
// GFMC is re-divided on each arrival.
func Fig9(duration sim.Duration, scale int, seed uint64) Fig9Result {
	if duration == 0 {
		duration = 180 * sim.Second
	}
	res := RunColocation(ColocationConfig{
		Policy:    "vulcan",
		Duration:  duration,
		Seed:      seed,
		Staggered: true,
		Scale:     scale,
	})
	var out Fig9Result
	rec := res.System.Recorder()
	for _, a := range res.System.Apps() {
		name := a.Name()
		s := Fig9AppSeries{App: name}
		if !a.Started() && !a.Stopped() {
			// Never started: no series to read, rendered as such.
			out.Apps = append(out.Apps, s)
			continue
		}
		alloc := rec.Series(name + ".vulcan_alloc")
		fast := rec.Series(name + ".fast_pages")
		fthr := rec.Series(name + ".fthr")
		gpt := rec.Series(name + ".vulcan_gpt")
		demand := rec.Series(name + ".vulcan_demand")
		for i := 0; i < alloc.Len(); i++ {
			s.Times = append(s.Times, alloc.At(i).T)
			s.Alloc = append(s.Alloc, alloc.At(i).V)
			s.GPT = append(s.GPT, gpt.At(i).V)
			s.Demand = append(s.Demand, demand.At(i).V)
		}
		for i := 0; i < fast.Len(); i++ {
			s.Fast = append(s.Fast, fast.At(i).V)
			s.FTHR = append(s.FTHR, fthr.At(i).V)
		}
		out.Apps = append(out.Apps, s)
	}
	return out
}

// RenderFig9 summarizes the traces at a few sample times.
func RenderFig9(r Fig9Result) string {
	var b strings.Builder
	b.WriteString("Figure 9: dynamic allocation under Vulcan (staggered arrivals)\n")
	for _, s := range r.Apps {
		n := len(s.Alloc)
		if n == 0 {
			fmt.Fprintf(&b, "  %-10s (never started)\n", s.App)
			continue
		}
		fmt.Fprintf(&b, "  %-10s arrived t=%v\n", s.App, s.Times[0])
		for _, frac := range []float64{0, 0.25, 0.5, 0.75, 1} {
			i := int(frac * float64(n-1))
			fi := i
			if fi >= len(s.FTHR) {
				fi = len(s.FTHR) - 1
			}
			fmt.Fprintf(&b, "    t=%-10v alloc=%6.0f fast=%6.0f fthr=%.3f gpt=%.3f demand=%6.0f\n",
				s.Times[i], s.Alloc[i], s.Fast[fi], s.FTHR[fi], s.GPT[i], s.Demand[i])
		}
	}
	return b.String()
}

// CSVFig9 renders the traces as long-format CSV.
func CSVFig9(r Fig9Result) string {
	var b strings.Builder
	b.WriteString("app,time_ns,alloc_pages,fast_pages,fthr,gpt,demand_pages\n")
	for _, s := range r.Apps {
		for i := range s.Times {
			fast, fthr := 0.0, 0.0
			if i < len(s.Fast) {
				fast, fthr = s.Fast[i], s.FTHR[i]
			}
			fmt.Fprintf(&b, "%s,%d,%.0f,%.0f,%.4f,%.4f,%.0f\n",
				s.App, int64(s.Times[i]), s.Alloc[i], fast, fthr, s.GPT[i], s.Demand[i])
		}
	}
	return b.String()
}
