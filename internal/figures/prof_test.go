package figures

import (
	"bytes"
	"math"
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/lab"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
)

// TestCostCoverageColocation is the profiler's accounting acceptance
// gate: over a full Figure-10-style co-location run, the attributed
// cost accounts must cover at least 99% of the total simulated cycles —
// the residual the breakdown exports as "unattributed" is bounded FP
// association error, not a missing subsystem.
func TestCostCoverageColocation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		policy string
		plan   *fault.Plan
	}{
		{name: "vulcan", policy: "vulcan"},
		{name: "memtis", policy: "memtis"},
		{name: "vulcan-faulted", policy: "vulcan", plan: fault.PlanAtRate(0.05)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := prof.New()
			RunColocation(ColocationConfig{
				Policy:   tc.policy,
				Duration: 30 * sim.Second,
				Seed:     1,
				Scale:    8,
				Faults:   tc.plan,
				Prof:     p,
			})
			total, attributed, unattributed := p.Totals()
			if total <= 0 {
				t.Fatalf("total simulated cost = %v, want > 0", total)
			}
			frac := math.Abs(unattributed) / total
			if frac > 0.01 {
				t.Errorf("unattributed %v of %v total (%.4f%%), want <= 1%%; attributed = %v",
					unattributed, total, 100*frac, attributed)
			}
			t.Logf("total=%.4g attributed=%.4g residual=%.3g (%.2e of total)",
				total, attributed, unattributed, frac)
		})
	}
}

// observerDump serializes everything a run emits through the report and
// recorder — with or without a cost profiler wired into the system.
func observerDump(t *testing.T, p *prof.Profiler) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	res := RunColocation(ColocationConfig{
		Policy:   "vulcan",
		Duration: 20 * sim.Second,
		Seed:     3,
		Scale:    8,
		Obs:      rec,
		Prof:     p,
	})
	var buf bytes.Buffer
	if err := res.System.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := res.System.Recorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteMetricsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCostProfilerIsObserverOnly pins the disabled-path guarantee from
// the other side: a run with a profiler charging every subsystem emits
// exactly the report, series, trace and metrics bytes of a run with no
// profiler at all. Attribution must never feed back into the
// simulation.
func TestCostProfilerIsObserverOnly(t *testing.T) {
	without := observerDump(t, nil)
	with := observerDump(t, prof.New())
	if !bytes.Equal(without, with) {
		t.Fatal("wiring a cost profiler changed simulation output; attribution must be observer-only")
	}
}

// TestCostArtifactsWorkerInvariant runs a three-seed sweep under 1, 2
// and 7 lab workers and requires both cost artifacts (pprof and the
// breakdown CSV) to be byte-identical: profile bytes must depend only on the scenario, never
// on host parallelism.
func TestCostArtifactsWorkerInvariant(t *testing.T) {
	sweep := func(workers int) []byte {
		outs := lab.Map(workers, 3, func(i int) []byte {
			p := prof.New()
			RunColocation(ColocationConfig{
				Policy:   "vulcan",
				Duration: 15 * sim.Second,
				Seed:     uint64(i + 1),
				Scale:    8,
				Prof:     p,
			})
			var buf bytes.Buffer
			for _, write := range []func(*bytes.Buffer) error{
				func(b *bytes.Buffer) error { return p.WritePprof(b) },
				func(b *bytes.Buffer) error { return p.WriteBreakdownCSV(b) },
			} {
				if err := write(&buf); err != nil {
					t.Error(err)
				}
			}
			return buf.Bytes()
		})
		return bytes.Join(outs, []byte{0})
	}
	base := sweep(1)
	for _, w := range []int{2, 7} {
		if !bytes.Equal(base, sweep(w)) {
			t.Errorf("cost artifacts differ between 1 and %d workers", w)
		}
	}
}
