package system

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

func TestReportContents(t *testing.T) {
	sys := New(Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("a", workload.LC, 800, 0),
			tinyApp("late", workload.BE, 400, sim.Time(1*sim.Second)),
		},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.Run(50 * sim.Millisecond)
	r := sys.Report()

	if r.Policy != "static" || r.Epochs != 5 {
		t.Fatalf("header: %+v", r)
	}
	if r.SimSeconds != 0.05 {
		t.Fatalf("sim seconds = %v", r.SimSeconds)
	}
	if r.FastCapacity != 256 || r.FastUsed != 256 {
		t.Fatalf("fast: %d/%d", r.FastUsed, r.FastCapacity)
	}
	if !r.AuditOK {
		t.Fatalf("audit: %v", r.AuditProblems)
	}
	if len(r.Apps) != 2 {
		t.Fatalf("apps = %d", len(r.Apps))
	}
	a := r.Apps[0]
	if !a.Started || a.Name != "a" || a.Class != "LC" {
		t.Fatalf("app a: %+v", a)
	}
	if a.MeanPerf <= 0 || a.TotalOps <= 0 || a.RSSPages == 0 {
		t.Fatalf("app a metrics: %+v", a)
	}
	if a.THPGroups == 0 {
		t.Fatal("THP groups missing from report")
	}
	late := r.Apps[1]
	if late.Started || late.RSSPages != 0 {
		t.Fatalf("unstarted app leaked data: %+v", late)
	}
	if r.FastCapacity == 0 || r.FastUsed != r.FastCapacity {
		t.Fatalf("fast used %d of %d, want full", r.FastUsed, r.FastCapacity)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 500, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	var buf bytes.Buffer
	if err := sys.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if back.Policy != "static" || len(back.Apps) != 1 {
		t.Fatalf("round trip: %+v", back)
	}
	if !strings.Contains(buf.String(), "\"fthr\"") {
		t.Fatal("expected field names missing")
	}
}

// TestReportWriteTextGolden pins the text formatter byte-for-byte: the
// table is parsed by eyeballs and by scripts in equal measure, so layout
// drift is a breaking change.
func TestReportWriteTextGolden(t *testing.T) {
	r := Report{
		Policy:       "vulcan",
		Epochs:       120,
		SimSeconds:   120,
		FastCapacity: 256,
		FastUsed:     200,
		CFI:          0.925,
		AuditOK:      true,
		Apps: []AppReport{
			{
				Name: "memcached", Class: "LC", Started: true,
				MeanPerf: 0.912, PerfCI95: 0.01, FTHR: 0.875,
				FastPages: 150, RSSPages: 400,
			},
			{Name: "idle", Class: "BE"},
		},
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	want := "policy=vulcan  simulated=120s  fast tier used 200/256 pages\n" +
		"app          class         perf      ±ci95       fthr   fast pages    rss pages\n" +
		"memcached    LC           0.912      0.010      0.875          150          400\n" +
		"idle         (never started)\n" +
		"CFI (FTHR-weighted cumulative fairness, Eq.4): 0.925\n"
	if got := buf.String(); got != want {
		t.Fatalf("golden mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestReportWriteTextAuditWarning(t *testing.T) {
	r := Report{
		Policy:        "static",
		Apps:          []AppReport{{Name: "a", Class: "LC"}},
		AuditProblems: []string{"frame 7 double-owned"},
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "frame 7 double-owned") {
		t.Fatalf("audit warning missing:\n%s", buf.String())
	}
}

func TestReportWriteTextEmptyRun(t *testing.T) {
	var buf bytes.Buffer
	err := (Report{Policy: "vulcan"}).WriteText(&buf)
	if err == nil {
		t.Fatal("empty run accepted")
	}
	if !strings.Contains(err.Error(), "empty run") {
		t.Fatalf("unhelpful error: %v", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("partial output on error: %q", buf.String())
	}
}

func TestSystemAccessors(t *testing.T) {
	pol := NullPolicy{}
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 500, 0)},
		EpochLength: 10 * sim.Millisecond,
		Policy:      pol,
	})
	if sys.Cores() != 8 {
		t.Fatalf("Cores = %d", sys.Cores())
	}
	if sys.EpochLength() != 10*sim.Millisecond {
		t.Fatalf("EpochLength = %v", sys.EpochLength())
	}
	if sys.Policy().Name() != "static" {
		t.Fatal("Policy accessor wrong")
	}
	if len(sys.Apps()) != 1 {
		t.Fatal("Apps accessor wrong")
	}
	if got := sys.Mechanisms(); got != (Mechanisms{}) {
		t.Fatalf("Mechanisms = %+v", got)
	}
	sys.RunEpoch()
	a := sys.App("a")
	if a.Name() != "a" || a.Class() != workload.LC {
		t.Fatal("App accessors wrong")
	}
	if a.CostModel().CopyPerPage <= 0 {
		t.Fatal("CostModel accessor wrong")
	}
	if a.SampleWeight() <= 0 {
		t.Fatal("SampleWeight accessor wrong")
	}
	util := sys.bwUtil
	if util[0] < 0 || util[1] < 0 {
		t.Fatal("BandwidthUtil negative")
	}
	if sys.Audit().String() == "" {
		t.Fatal("audit String empty")
	}
}

func TestChargeStallNegativePanics(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 500, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	defer func() {
		if recover() == nil {
			t.Fatal("negative stall did not panic")
		}
	}()
	sys.App("a").ChargeStall(-1)
}

func TestOpenLoopSaturation(t *testing.T) {
	// An open-loop app whose arrival rate exceeds CPU capacity saturates:
	// its throughput caps at capacity and perf degrades accordingly.
	mk := func(rate float64) (ops, perf float64) {
		cfg := tinyApp("a", workload.LC, 500, 0)
		cfg.OpsPerSec = rate
		cfg.ComputeNs = 1000 * sim.Nanosecond // 1µs/op -> ~2M ops/s on 2 threads
		sys := New(Config{
			Machine:     tinyMachine(256, 2048),
			Apps:        []workload.AppConfig{cfg},
			EpochLength: 10 * sim.Millisecond,
			Seed:        3,
		})
		sys.RunEpoch()
		a := sys.App("a")
		return a.EpochOps(), a.NormalizedPerf().Mean()
	}
	lowOps, lowPerf := mk(1e5)
	highOps, highPerf := mk(1e9) // far beyond capacity
	if lowOps >= highOps {
		t.Fatalf("ops did not grow with arrivals: %v vs %v", lowOps, highOps)
	}
	// At 1e9/s arrivals the CPU caps throughput well below arrivals.
	if highOps > 3e7*0.01*2 { // 2 threads x 10ms at ~1µs/op upper bound
		t.Fatalf("saturated ops = %v, impossibly high", highOps)
	}
	if highPerf >= lowPerf {
		t.Fatalf("saturation did not degrade perf: %v vs %v", highPerf, lowPerf)
	}
}
