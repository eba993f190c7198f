package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vulcan/internal/cluster"
	"vulcan/internal/fault"
	"vulcan/internal/figures"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

const sampleJSON = `{
  "policy": "memtis",
  "seconds": 30,
  "seed": 9,
  "scale": 16,
  "apps": [
    {"preset": "memcached"},
    {"preset": "liblinear", "start_at_s": 10},
    {"name": "scanner", "class": "BE", "threads": 2, "rss_pages": 5000,
     "generator": "scan", "write_frac": 0.1, "compute_ns": 60}
  ]
}`

func TestLoadSample(t *testing.T) {
	p, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy != "memtis" || p.Seed != 9 {
		t.Fatalf("header: %+v", p)
	}
	if p.Duration != 30*sim.Second {
		t.Fatalf("duration = %v", p.Duration)
	}
	if len(p.Apps) != 3 {
		t.Fatalf("apps = %d", len(p.Apps))
	}
	if p.Apps[0].RSSPages != workload.MemcachedConfig().RSSPages/16 {
		t.Fatalf("preset scaling wrong: %d", p.Apps[0].RSSPages)
	}
	if p.Apps[1].StartAt != sim.Time(10*sim.Second) {
		t.Fatalf("start_at = %v", p.Apps[1].StartAt)
	}
	custom := p.Apps[2]
	if custom.Name != "scanner" || custom.Class != workload.BE || custom.Threads != 2 {
		t.Fatalf("custom app: %+v", custom)
	}
	g := custom.NewGen(100, sim.NewRNG(1))
	if g.Name() != "scan" {
		t.Fatalf("generator = %q", g.Name())
	}
}

func TestLoadedScenarioRuns(t *testing.T) {
	p, err := Load(strings.NewReader(sampleJSON))
	if err != nil {
		t.Fatal(err)
	}
	sys := system.New(system.Config{
		Machine:          p.Machine,
		Apps:             p.Apps,
		Policy:           figures.NewPolicy(p.Policy),
		Seed:             p.Seed,
		SamplesPerThread: 400,
	})
	sys.Run(5 * sim.Second)
	if len(sys.StartedApps()) == 0 {
		t.Fatal("nothing started")
	}
	if rep := sys.Audit(); !rep.Ok() {
		t.Fatalf("audit failed: %v", rep.Errors)
	}
	r := sys.Report()
	if r.Policy != "memtis" || len(r.Apps) != 3 {
		t.Fatalf("report: %+v", r)
	}
}

func TestMachineOverride(t *testing.T) {
	p, err := Load(strings.NewReader(`{
	  "apps": [{"preset": "memcached"}],
	  "machine": {"cores": 16, "fast_pages": 1234, "slow_pages": 299999}
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Machine.Cores != 16 {
		t.Fatalf("cores = %d", p.Machine.Cores)
	}
	if p.Machine.Tiers[0].CapacityPages != 1234 || p.Machine.Tiers[1].CapacityPages != 299999 {
		t.Fatalf("tier override: %+v", p.Machine.Tiers)
	}
}

func TestDefaults(t *testing.T) {
	p, err := Load(strings.NewReader(`{"apps": [{"preset": "pagerank"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy != "vulcan" || p.Seed != 1 || p.Duration != 120*sim.Second {
		t.Fatalf("defaults: %+v", p)
	}
}

// loadErrorCases are scenarios Load must reject; FuzzResolve seeds from
// them too.
var loadErrorCases = map[string]string{
	"garbage":            `{`,
	"unknown field":      `{"bogus": 1, "apps":[{"preset":"memcached"}]}`,
	"no apps":            `{"policy":"tpp"}`,
	"unknown policy":     `{"policy":"bogus","apps":[{"preset":"memcached"}]}`,
	"bad preset":         `{"apps":[{"preset":"redis"}]}`,
	"custom no name":     `{"apps":[{"generator":"zipf","rss_pages":10}]}`,
	"bad class":          `{"apps":[{"name":"x","class":"MEDIUM","rss_pages":10}]}`,
	"bad generator":      `{"apps":[{"name":"x","rss_pages":10,"generator":"lru"}]}`,
	"micro without wss":  `{"apps":[{"name":"x","rss_pages":10,"generator":"micro"}]}`,
	"custom zero rss":    `{"apps":[{"name":"x","rss_pages":0}]}`,
	"preset premap 3":    `{"apps":[{"preset":"memcached","premap_fraction":3}]}`,
	"write_frac 1.5":     `{"apps":[{"name":"x","rss_pages":100,"write_frac":1.5}]}`,
	"negative zipf_skew": `{"apps":[{"name":"x","rss_pages":100,"zipf_skew":-1}]}`,
	"custom premap 3":    `{"apps":[{"name":"x","rss_pages":10,"premap_fraction":3}]}`,
	"scaled to no rss":   `{"scale":1000000000,"apps":[{"preset":"memcached"}]}`,
	"scaled to one page": `{"scale":100000,"machine":{"fast_pages":64,"slow_pages":4096},"apps":[{"preset":"memcached"}]}`,

	"scaled to no fast tier": `{"scale":200000,"apps":[{"preset":"memcached"}]}`,
	"app past memory":        `{"machine":{"fast_pages":64,"slow_pages":4096},"apps":[{"preset":"memcached"}]}`,
	"apps sum past memory":   `{"machine":{"fast_pages":64,"slow_pages":4096},"apps":[{"name":"a","rss_pages":3000},{"name":"b","rss_pages":3000}]}`,
	"fleet job past host":    `{"machine":{"fast_pages":64,"slow_pages":4096},"apps":[{"preset":"memcached"}],"fleet":{"hosts":2}}`,
	"fleet job past a host":  `{"apps":[{"name":"a","rss_pages":5000}],"fleet":{"hosts":2,"overrides":[{"host":1,"fast_pages":64,"slow_pages":64}]}}`,

	"unknown fault field":      `{"apps":[{"preset":"memcached"}],"faults":{"kind":"pebs"}}`,
	"unknown fault profile":    `{"apps":[{"preset":"memcached"}],"faults":{"profile":"apocalyptic"}}`,
	"fault rate over 1":        `{"apps":[{"preset":"memcached"}],"faults":{"rate":1.5}}`,
	"negative fault rate":      `{"apps":[{"preset":"memcached"}],"faults":{"rate":-0.1}}`,
	"profile and rate":         `{"apps":[{"preset":"memcached"}],"faults":{"profile":"light","rate":0.05}}`,
	"fault seed doing nothing": `{"apps":[{"preset":"memcached"}],"faults":{"seed":7}}`,

	"name with a comma":         `{"apps":[{"name":"x,y","rss_pages":100}]}`,
	"preset renamed with brace": `{"apps":[{"preset":"memcached","name":"p}q"}]}`,
	"name with a newline":       `{"apps":[{"name":"n\nl","rss_pages":100}]}`,
	"template name with comma":  `{"apps":[{"preset":"memcached"}],"arrivals":{"rate_per_epoch":1,"template":{"name":"x,y","rss_pages":1000}}}`,
	"fleet job with brace":      `{"apps":[{"name":"p}q","rss_pages":100}],"fleet":{"hosts":2}}`,
}

func TestLoadErrors(t *testing.T) {
	for name, js := range loadErrorCases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzResolve feeds LoadFile and Resolve arbitrary bytes. Neither may
// panic, and every app of an accepted scenario — its own apps, the
// arrivals template and the fleet jobs — must pass AppConfig.Check, so
// no accepted scenario can crash the system that admits it.
func FuzzResolve(f *testing.F) {
	seeds, err := filepath.Glob("../../cmd/vulcansim/testdata/*.json")
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range append(seeds, "../../testdata/serve/scenario.json") {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(sampleJSON))
	for _, js := range loadErrorCases {
		f.Add([]byte(js))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		file, err := LoadFile(bytes.NewReader(raw))
		if err != nil {
			return
		}
		p, err := Resolve(file)
		if err != nil {
			return
		}
		apps := append([]workload.AppConfig(nil), p.Apps...)
		if p.Arrivals != nil {
			apps = append(apps, p.Arrivals.Template)
		}
		if p.Fleet != nil {
			for _, j := range p.Fleet.Jobs {
				apps = append(apps, j.App)
			}
		}
		for _, a := range apps {
			if err := a.Check(); err != nil {
				t.Fatalf("accepted scenario holds a bad app: %v", err)
			}
		}
	})
}

func TestFaultsBlock(t *testing.T) {
	p, err := Load(strings.NewReader(
		`{"apps":[{"preset":"memcached"}],"faults":{"profile":"moderate","seed":42}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := fault.PlanAtRate(0.05)
	want.Seed = 42
	if p.Faults == nil {
		t.Fatal("moderate profile compiled to nil plan")
	}
	if !reflect.DeepEqual(p.Faults, want) {
		t.Fatalf("plan = %+v, want %+v", p.Faults, want)
	}

	p, err = Load(strings.NewReader(
		`{"apps":[{"preset":"memcached"}],"faults":{"rate":0.07}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.Faults, fault.PlanAtRate(0.07)) {
		t.Fatalf("rate plan = %+v", p.Faults)
	}

	// An explicit rate arms the canonical plan even beside profile "off".
	p, err = Load(strings.NewReader(
		`{"apps":[{"preset":"memcached"}],"faults":{"profile":"off","rate":0.05}}`))
	if err != nil {
		t.Fatal(err)
	}
	if !p.Faults.Armed() || !reflect.DeepEqual(p.Faults, fault.PlanAtRate(0.05)) {
		t.Fatalf("off+rate plan = %+v, want the armed canonical plan", p.Faults)
	}

	// "off", zero rate, and an absent block are all chaos-free.
	for _, js := range []string{
		`{"apps":[{"preset":"memcached"}]}`,
		`{"apps":[{"preset":"memcached"}],"faults":{"profile":"off"}}`,
		`{"apps":[{"preset":"memcached"}],"faults":{"rate":0}}`,
	} {
		p, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatalf("%s: %v", js, err)
		}
		if p.Faults != nil {
			t.Fatalf("%s: compiled to %+v, want nil", js, p.Faults)
		}
	}
}

// TestFaultsRoundTrip runs a faulted JSON scenario and requires the same
// bytes as the directly-constructed equivalent plan — the block is pure
// sugar over fault.PlanAtRate.
func TestFaultsRoundTrip(t *testing.T) {
	js := `{
	  "policy": "vulcan", "seconds": 5, "seed": 3, "scale": 32,
	  "apps": [{"preset": "memcached"}],
	  "faults": {"rate": 0.1, "seed": 11}
	}`
	run := func(plan *fault.Plan) []byte {
		p, err := Load(strings.NewReader(js))
		if err != nil {
			t.Fatal(err)
		}
		if plan != nil {
			p.Faults = plan
		}
		sys := system.New(p.SystemConfig(400))
		sys.Run(p.Duration)
		var buf bytes.Buffer
		if err := sys.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := sys.Recorder().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	direct := fault.PlanAtRate(0.1)
	direct.Seed = 11
	a, b := run(nil), run(direct)
	if !bytes.Equal(a, b) {
		t.Fatal("JSON faults block diverged from the equivalent direct plan")
	}
}

func TestPremapFractionPlumbing(t *testing.T) {
	p, err := Load(strings.NewReader(
		`{"apps":[{"preset":"memcached","premap_fraction":0.5}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Apps[0].PremapFraction != 0.5 {
		t.Fatalf("premap fraction = %v", p.Apps[0].PremapFraction)
	}
}

func TestAllGeneratorKinds(t *testing.T) {
	for _, kind := range []string{"zipf", "uniform", "scan", "keyvalue", "graph", "mltrain", "webserver", "micro"} {
		js := `{"apps":[{"name":"g","rss_pages":2000,"generator":"` + kind + `","wss_pages":100}]}`
		p, err := Load(strings.NewReader(js))
		if err != nil {
			t.Errorf("%s: %v", kind, err)
			continue
		}
		g := p.Apps[0].NewGen(1000, sim.NewRNG(2))
		for i := 0; i < 100; i++ {
			if r := g.Next(); r.Page < 0 || r.Page >= 1000 {
				t.Errorf("%s: page %d out of range", kind, r.Page)
				break
			}
		}
	}
}

const fleetJSON = `{
  "seconds": 8,
  "seed": 5,
  "scale": 16,
  "apps": [
    {"preset": "memcached"},
    {"preset": "liblinear", "start_at_s": 2, "stop_at_s": 6},
    {"name": "scanner", "class": "BE", "threads": 2, "rss_pages": 200,
     "generator": "scan", "compute_ns": 60, "start_at_s": 1}
  ],
  "fleet": {"hosts": 3, "scheduler": "fairness", "rebalance_every": 4,
            "move_budget": 2, "overrides": [{"host": 1, "fast_pages": 64}]}
}`

func TestFleetBlock(t *testing.T) {
	p, err := Load(strings.NewReader(fleetJSON))
	if err != nil {
		t.Fatal(err)
	}
	fp := p.Fleet
	if fp == nil {
		t.Fatal("fleet block compiled to nil plan")
	}
	if fp.Hosts != 3 || fp.Scheduler != "fairness" || fp.RebalanceEvery != 4 || fp.MoveBudget != 2 {
		t.Fatalf("plan header: %+v", fp)
	}
	if len(fp.Jobs) != 3 {
		t.Fatalf("jobs = %d", len(fp.Jobs))
	}
	j := fp.Jobs[1]
	if j.Arrive != 2 || j.Depart != 6 {
		t.Fatalf("job 1 window = [%d,%d)", j.Arrive, j.Depart)
	}
	if j.App.StartAt != 0 {
		t.Fatalf("job StartAt = %v, want 0 (arrival epoch drives placement)", j.App.StartAt)
	}
	if len(fp.Overrides) != 1 || fp.Overrides[0].Host != 1 || fp.Overrides[0].FastPages != 64 {
		t.Fatalf("overrides: %+v", fp.Overrides)
	}

	// Scheduler defaults to binpack; absent block means single-machine.
	p2, err := Load(strings.NewReader(
		`{"apps":[{"preset":"memcached"}],"fleet":{"hosts":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	if p2.Fleet.Scheduler != "binpack" {
		t.Fatalf("default scheduler = %q", p2.Fleet.Scheduler)
	}
	p3, err := Load(strings.NewReader(`{"apps":[{"preset":"memcached"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if p3.Fleet != nil {
		t.Fatalf("absent fleet block compiled to %+v", p3.Fleet)
	}
}

func TestFleetErrors(t *testing.T) {
	fleet := func(block string) string {
		return `{"apps":[{"preset":"memcached"}],"fleet":` + block + `}`
	}
	cases := map[string]string{
		"zero hosts":          fleet(`{"hosts":0}`),
		"unknown scheduler":   fleet(`{"hosts":2,"scheduler":"roundrobin"}`),
		"unknown fleet field": fleet(`{"hosts":2,"spread":true}`),
		"negative cadence":    fleet(`{"hosts":2,"rebalance_every":-1}`),
		"negative budget":     fleet(`{"hosts":2,"move_budget":-1}`),
		"override oob":        fleet(`{"hosts":2,"overrides":[{"host":2,"fast_pages":64}]}`),
		"override negative":   fleet(`{"hosts":2,"overrides":[{"host":0,"fast_pages":64}]}`),
		"override empty":      fleet(`{"hosts":2,"overrides":[{"host":0}]}`),
		"override duplicate": fleet(
			`{"hosts":2,"overrides":[{"host":0,"cores":4},{"host":0,"fast_pages":64}]}`),
		"duplicate job name": `{"apps":[{"preset":"memcached"},{"preset":"memcached"}],` +
			`"fleet":{"hosts":2}}`,
		"stop without fleet": `{"apps":[{"preset":"memcached","stop_at_s":5}]}`,
		"stop before start": `{"apps":[{"preset":"memcached","start_at_s":4,"stop_at_s":3}],` +
			`"fleet":{"hosts":2}}`,
	}
	cases["override negative"] = fleet(`{"hosts":2,"overrides":[{"host":0,"fast_pages":-64}]}`)
	for name, js := range cases {
		if _, err := Load(strings.NewReader(js)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestFleetScenarioRuns drives a cluster straight from a parsed fleet
// scenario and checks the override hook and job windows took effect.
func TestFleetScenarioRuns(t *testing.T) {
	p, err := Load(strings.NewReader(fleetJSON))
	if err != nil {
		t.Fatal(err)
	}
	cfg := p.Fleet.ClusterConfig(p, 10*sim.Millisecond, 1)
	cfg.Workers = 2
	f, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(8); err != nil {
		t.Fatal(err)
	}
	r := f.Report()
	if r.Placed != 2 || r.Departed != 1 {
		t.Fatalf("placed=%d departed=%d, want 2/1", r.Placed, r.Departed)
	}
	fast := f.Host(1).Sys.Tiers().Fast().Capacity()
	if fast != 64 {
		t.Fatalf("host 1 fast capacity = %d, want override 64", fast)
	}
	for h := 0; h < f.NumHosts(); h++ {
		if audit := f.Host(h).Sys.Audit(); !audit.Ok() {
			t.Errorf("host %d audit: %v", h, audit.Errors)
		}
	}
}

// TestPresetName: a preset's name renames it, so one preset can run
// twice in a fleet, and the arrivals collision check sees the new name.
func TestPresetName(t *testing.T) {
	p, err := Load(strings.NewReader(`{"scale": 16, "apps": [
		{"preset": "memcached", "name": "mc0"},
		{"preset": "memcached", "name": "mc1", "start_at_s": 3}],
		"fleet": {"hosts": 2}}`))
	if err != nil {
		t.Fatal(err)
	}
	want := workload.MemcachedConfig()
	want.RSSPages /= 16
	for i, j := range p.Fleet.Jobs {
		if j.App.Name != fmt.Sprintf("mc%d", i) || j.App.RSSPages != want.RSSPages || j.App.Class != want.Class {
			t.Fatalf("job %d = %s (%d pages), want mc%d (%d pages)", i, j.App.Name, j.App.RSSPages, i, want.RSSPages)
		}
	}

	// The template collides with the renamed preset, not the preset kind.
	tmpl := `"arrivals": {"rate_per_epoch": 1, "template": {"name": "%s", "rss_pages": 1000}}`
	apps := `"apps": [{"preset": "memcached", "name": "mc"}]`
	if _, err := Load(strings.NewReader(`{` + apps + `, ` + fmt.Sprintf(tmpl, "memcached") + `}`)); err != nil {
		t.Fatalf("template named after a renamed preset's kind: %v", err)
	}
	if _, err := Load(strings.NewReader(`{` + apps + `, ` + fmt.Sprintf(tmpl, "mc") + `}`)); err == nil {
		t.Fatal("template name colliding with a renamed preset accepted")
	}
}

// TestLoadRejectsUnsafeNames: names carrying a CSV or label separator
// are rejected wherever a scenario names an app — its apps, a renamed
// preset, the arrivals template and fleet jobs.
func TestLoadRejectsUnsafeNames(t *testing.T) {
	for _, name := range []string{"x,y", "p}q", "n\nl"} {
		q, err := json.Marshal(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, js := range []string{
			`{"apps":[{"name":%s,"rss_pages":100}]}`,
			`{"apps":[{"preset":"memcached","name":%s}]}`,
			`{"apps":[{"preset":"memcached"}],"arrivals":{"rate_per_epoch":1,"template":{"name":%s,"rss_pages":1000}}}`,
			`{"apps":[{"name":%s,"rss_pages":100}],"fleet":{"hosts":2}}`,
		} {
			_, err := Load(strings.NewReader(fmt.Sprintf(js, q)))
			if err == nil || !strings.Contains(err.Error(), "app name") {
				t.Errorf("%s: err = %v, want an app-name rejection", fmt.Sprintf(js, q), err)
			}
		}
	}
}
