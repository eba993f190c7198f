package figures

import (
	"bytes"
	"fmt"
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
)

// replayDump runs one co-location scenario and serializes everything
// observable about it: the full JSON report, every recorded time series
// as CSV, both telemetry exports (Chrome trace, metric samples), and
// both cost-profile artifacts (pprof protobuf, breakdown CSV). Byte-identity of two dumps
// is the determinism contract the vulcanvet analyzers exist to protect
// — this test is the golden replay guard for the dynamic behavior no
// static check can prove.
func replayDump(t *testing.T, policy string, seed uint64, plan *fault.Plan) []byte {
	t.Helper()
	rec := obs.NewRecorder()
	p := prof.New()
	res := RunColocation(ColocationConfig{
		Policy:   policy,
		Duration: 30 * sim.Second,
		Seed:     seed,
		Scale:    8,
		Obs:      rec,
		Faults:   plan,
		Prof:     p,
	})
	var buf bytes.Buffer
	if err := res.System.Report().WriteJSON(&buf); err != nil {
		t.Fatalf("report: %v", err)
	}
	fmt.Fprintf(&buf, "cfi=%.17g\n", res.CFI)
	for _, a := range res.Apps {
		fmt.Fprintf(&buf, "app=%s perf=%.17g ci=%.17g fthr=%.17g meanfthr=%.17g fast=%d rss=%d\n",
			a.Name, a.Perf, a.PerfCI, a.FTHR, a.MeanFTHR, a.Fast, a.RSS)
	}
	if err := res.System.Recorder().WriteCSV(&buf); err != nil {
		t.Fatalf("csv: %v", err)
	}
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("chrome trace: %v", err)
	}
	if err := rec.WriteMetricsCSV(&buf); err != nil {
		t.Fatalf("metrics csv: %v", err)
	}
	if err := p.WritePprof(&buf); err != nil {
		t.Fatalf("cost pprof: %v", err)
	}
	if err := p.WriteBreakdownCSV(&buf); err != nil {
		t.Fatalf("cost csv: %v", err)
	}
	return buf.Bytes()
}

// TestReplayByteIdentical reruns the same seeded scenario and requires
// the complete metrics output to match byte for byte, for the paper's
// policy and for the most map-heavy baseline.
func TestReplayByteIdentical(t *testing.T) {
	for _, policy := range []string{"vulcan", "memtis"} {
		t.Run(policy, func(t *testing.T) {
			a := replayDump(t, policy, 7, nil)
			b := replayDump(t, policy, 7, nil)
			if !bytes.Equal(a, b) {
				t.Fatalf("replay diverged:\n%s", firstDiff(a, b))
			}
		})
	}
}

// TestFaultedReplayByteIdentical extends the replay guard to a chaotic
// run: the full fault schedule, retry traffic, and degradation events
// must replay byte for byte.
func TestFaultedReplayByteIdentical(t *testing.T) {
	plan := fault.PlanAtRate(0.05)
	a := replayDump(t, "vulcan", 7, plan)
	b := replayDump(t, "vulcan", 7, plan)
	if !bytes.Equal(a, b) {
		t.Fatalf("faulted replay diverged:\n%s", firstDiff(a, b))
	}
	// The faulted dump must actually differ from the clean one, or the
	// guard proves nothing about the chaos path.
	if clean := replayDump(t, "vulcan", 7, nil); bytes.Equal(a, clean) {
		t.Fatal("rate-0.05 plan changed nothing; faulted replay guard is vacuous")
	}
}

// TestZeroRatePlanIsByteIdenticalToNil pins the subsystem's flagship
// guarantee at the figures level: an unarmed plan (rate 0 compiles to
// nil) produces the exact bytes of a fault-free run — report, series
// CSV, trace, and metrics.
func TestZeroRatePlanIsByteIdenticalToNil(t *testing.T) {
	clean := replayDump(t, "vulcan", 7, nil)
	zero := replayDump(t, "vulcan", 7, fault.PlanAtRate(0))
	if !bytes.Equal(clean, zero) {
		t.Fatalf("zero-rate plan diverged from nil:\n%s", firstDiff(clean, zero))
	}
	unarmed := replayDump(t, "vulcan", 7, &fault.Plan{})
	if !bytes.Equal(clean, unarmed) {
		t.Fatalf("unarmed plan diverged from nil:\n%s", firstDiff(clean, unarmed))
	}
}

// TestReplaySeedSensitivity guards the other direction: a different seed
// must actually change the run, or the byte-identity test is vacuous.
func TestReplaySeedSensitivity(t *testing.T) {
	a := replayDump(t, "vulcan", 7, nil)
	b := replayDump(t, "vulcan", 8, nil)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical dumps; replay guard is vacuous")
	}
}

// firstDiff renders the first divergent line of two dumps.
func firstDiff(a, b []byte) string {
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d:\n  run1: %s\n  run2: %s", i+1, la[i], lb[i])
		}
	}
	return fmt.Sprintf("dumps differ in length: %d vs %d lines", len(la), len(lb))
}
