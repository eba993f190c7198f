package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"vulcan/internal/figures"
	"vulcan/internal/obs"
	"vulcan/internal/sim"
)

// TestColocationTraceExport is the end-to-end acceptance check: a seeded
// co-location run under the paper's policy must yield a valid Chrome
// trace containing migration, shootdown and epoch events attributed to
// at least two applications, and both exports must be byte-identical
// across a replay of the same seed.
func TestColocationTraceExport(t *testing.T) {
	run := func() *obs.Recorder {
		rec := obs.NewRecorder()
		figures.RunColocation(figures.ColocationConfig{
			Policy:   "vulcan",
			Duration: 30 * sim.Second,
			Seed:     5,
			Scale:    8,
			Obs:      rec,
		})
		return rec
	}
	rec := run()

	counts := map[obs.EventType]int{}
	for _, e := range rec.Events() {
		counts[e.Type]++
	}
	for _, et := range []obs.EventType{obs.EvMigrateSync, obs.EvMigrateAsync,
		obs.EvShootdown, obs.EvEpoch, obs.EvProfileEpoch, obs.EvQoSAdapt} {
		if counts[et] == 0 {
			t.Errorf("no %s events recorded", et)
		}
	}

	// Migration activity must span at least two applications.
	apps := map[string]bool{}
	for _, e := range rec.Events() {
		if e.Type == obs.EvMigrateSync || e.Type == obs.EvMigrateAsync {
			apps[e.App] = true
		}
	}
	if len(apps) < 2 {
		t.Errorf("migration events from %d app(s), want >= 2: %v", len(apps), apps)
	}

	// The trace must be well-formed JSON in Chrome trace-event shape,
	// with one process per app plus the machine.
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", trace.DisplayTimeUnit)
	}
	procs := map[string]bool{}
	seen := map[string]bool{}
	for _, e := range trace.TraceEvents {
		if e.Name == "process_name" && e.Ph == "M" {
			procs[e.Args["name"].(string)] = true
		}
		seen[e.Name] = true
	}
	if !procs["machine"] {
		t.Error("machine process missing from trace metadata")
	}
	if len(procs) < 3 { // machine + >=2 apps
		t.Errorf("trace has %d processes, want machine plus >= 2 apps: %v", len(procs), procs)
	}
	for _, name := range []string{"migrate-sync", "tlb-shootdown", "epoch"} {
		if !seen[name] {
			t.Errorf("trace has no %q events", name)
		}
	}

	// Metrics CSV goes out alongside and must carry per-app rows.
	var csv bytes.Buffer
	if err := rec.WriteMetricsCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(csv.Bytes(), []byte("fthr{app=")) {
		t.Errorf("metrics CSV missing per-app fthr gauge:\n%.400s", csv.String())
	}

	// Same seed, fresh recorder: both exports byte-identical.
	rec2 := run()
	var buf2, csv2 bytes.Buffer
	if err := rec2.WriteChromeTrace(&buf2); err != nil {
		t.Fatal(err)
	}
	if err := rec2.WriteMetricsCSV(&csv2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("chrome trace not byte-identical across seeded replay")
	}
	if !bytes.Equal(csv.Bytes(), csv2.Bytes()) {
		t.Error("metrics CSV not byte-identical across seeded replay")
	}
}

// TestObsFilterLimitsRecording checks that a filtered recorder admits
// only the requested event types end to end.
func TestObsFilterLimitsRecording(t *testing.T) {
	rec := obs.NewRecorder()
	filter, err := obs.ParseFilter("epoch,tlb-shootdown")
	if err != nil {
		t.Fatal(err)
	}
	rec.SetFilter(filter)
	figures.RunColocation(figures.ColocationConfig{
		Policy:   "vulcan",
		Duration: 10 * sim.Second,
		Seed:     5,
		Scale:    8,
		Obs:      rec,
	})
	epochs := 0
	for _, e := range rec.Events() {
		if e.Type != obs.EvEpoch && e.Type != obs.EvShootdown {
			t.Fatalf("filter leaked %s event", e.Type)
		}
		if e.Type == obs.EvEpoch {
			epochs++
		}
	}
	if epochs == 0 {
		t.Error("filter dropped an admitted type")
	}
}
