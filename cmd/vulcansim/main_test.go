package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulcan/internal/scenario"
)

// TestBuildFaultPlan drives the fault flags through their lowering to a
// scenario faults block and scenario.Resolve: the plan a run gets. Flags
// that select no plan lower to no block, so a -config file's own block
// stands.
func TestBuildFaultPlan(t *testing.T) {
	cases := []struct {
		name    string
		profile string
		rate    float64
		seed    uint64
		armed   bool
		wantErr string
	}{
		{name: "all off", profile: "", rate: 0, armed: false},
		{name: "explicit off", profile: "OFF", rate: 0, armed: false},
		{name: "profile", profile: "moderate", rate: 0, armed: true},
		{name: "rate", profile: "", rate: 0.05, armed: true},
		{name: "rate with explicit off", profile: "off", rate: 0.05, armed: true},
		{name: "rate and seed", profile: "", rate: 0.05, seed: 9, armed: true},
		{name: "unknown profile", profile: "catastrophic", wantErr: "catastrophic"},
		{name: "profile and rate clash", profile: "light", rate: 0.05, wantErr: "mutually exclusive"},
		{name: "rate above one", rate: 1.5, wantErr: "outside [0,1]"},
		{name: "negative rate", rate: -0.1, wantErr: "outside [0,1]"},
		{name: "orphan fault seed", seed: 42, wantErr: "no effect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := options{faults: tc.profile, faultRate: tc.rate, faultSeed: tc.seed}
			block := o.faultsBlock()
			if (block == nil) != (!tc.armed && tc.wantErr == "") {
				t.Fatalf("block = %+v: want one exactly when the flags select a plan or are invalid", block)
			}
			p, err := scenario.Resolve(scenario.File{Apps: []scenario.App{{Preset: "memcached"}}, Faults: block})
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want substring %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if p.Faults.Armed() != tc.armed {
				t.Fatalf("armed = %v, want %v", p.Faults.Armed(), tc.armed)
			}
			if tc.seed != 0 && p.Faults.Seed != tc.seed {
				t.Fatalf("plan.Seed = %d, want %d", p.Faults.Seed, tc.seed)
			}
			if p.Faults != nil {
				if err := p.Faults.Validate(); err != nil {
					t.Fatalf("built plan fails validation: %v", err)
				}
			}
		})
	}
}

func TestBuildRecorder(t *testing.T) {
	cases := []struct {
		name                         string
		traceOut, metricsOut, filter string
		wantRec                      bool
		wantErr                      []string
	}{
		{name: "no telemetry flags", wantRec: false},
		{name: "trace only", traceOut: "t.json", wantRec: true},
		{name: "metrics only", metricsOut: "m.csv", wantRec: true},
		{name: "valid filter", filter: "migrate-sync,tlb-shootdown", wantRec: true},
		{name: "filter with spaces", filter: " epoch , migrate-sync ", wantRec: true},
		{
			name:   "unknown event type",
			filter: "migrate-sync,flux-capacitor",
			// The error must name the bad type AND list the known ones so
			// the user can fix the flag without reading source.
			wantErr: []string{"-obs-filter", "flux-capacitor", "known:", "migrate-sync"},
		},
		{
			name:     "unknown type with trace flag",
			traceOut: "t.json",
			filter:   "nope",
			wantErr:  []string{"nope", "known:"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := buildRecorder(tc.traceOut, tc.metricsOut, tc.filter)
			if len(tc.wantErr) > 0 {
				if err == nil {
					t.Fatal("want error, got nil")
				}
				for _, sub := range tc.wantErr {
					if !strings.Contains(err.Error(), sub) {
						t.Errorf("error %q missing substring %q", err, sub)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if (rec != nil) != tc.wantRec {
				t.Fatalf("recorder = %v, want present=%v", rec, tc.wantRec)
			}
		})
	}
}

func TestBuildCostProfiler(t *testing.T) {
	if p := buildCostProfiler(costFlags{}); p != nil {
		t.Fatalf("no cost flags: profiler = %v, want nil", p)
	}
	for _, c := range []costFlags{{pb: "c.pb.gz"}, {csv: "c.csv"}} {
		if buildCostProfiler(c) == nil {
			t.Errorf("%+v: want a profiler", c)
		}
	}
}

// TestRunRejects: invalid command lines fail with a usage error (exit 2)
// naming the problem, before any simulation starts.
func TestRunRejects(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale 0"},
		{"zero seeds", []string{"-seeds", "0"}, "-seeds 0"},
		{"negative seeds", []string{"-seeds", "-2"}, "-seeds -2"},
		{"zero seconds", []string{"-seconds", "0"}, "-seconds 0"},
		{"zero seconds on resume", []string{"-seconds", "0", "-resume", "x.ckpt"}, "-seconds 0"},
		{"zero seed", []string{"-seed", "0"}, "-seed 0"},
		{"unknown policy", []string{"-policy", "bogus"}, `unknown policy "bogus"`},
		{"unknown app", []string{"-apps", "memcached,redis"}, `unknown preset "redis"`},
		{"unknown fault profile", []string{"-faults", "catastrophic"}, "catastrophic"},
		{"profile and rate", []string{"-faults", "light", "-fault-rate", "0.05"}, "mutually exclusive"},
		{"rate above one", []string{"-fault-rate", "1.5"}, "outside [0,1]"},
		{"orphan fault seed", []string{"-fault-seed", "42"}, "no effect"},
		{"bad obs filter", []string{"-obs-filter", "nope"}, "-obs-filter"},
		{"fleet bad obs filter", []string{"-fleet", "2", "-obs-filter", "nope"}, "-obs-filter"},
		{"fleet obs filter", []string{"-fleet", "2", "-obs-filter", "epoch"}, "fleet runs support"},
		{"fleet trace", []string{"-fleet", "2", "-trace-out", "t.json"}, "fleet runs support"},
		{"fleet seeds", []string{"-fleet", "2", "-seeds", "2"}, "fleet runs support"},
		{"fleet config", []string{"-fleet", "2", "-config", "testdata/single.json"}, "both define"},
		{"config fleet series", []string{"-config", "testdata/fleet.json", "-series", "s.csv"}, "fleet runs support"},
		{"config arrivals", []string{"-config", "../../testdata/serve/scenario.json"}, "runs only under vulcand"},
		{"unknown scheduler", []string{"-fleet", "2", "-scheduler", "roundrobin"}, "roundrobin"},
		{"seeds with checkpoint", []string{"-seeds", "2", "-checkpoint-out", "c.ckpt"}, "exclude -seeds"},
		{"every without out", []string{"-checkpoint-every", "5"}, "needs -checkpoint-out"},
		{"replay with faults", []string{"-replay-journal", "j", "-faults", "light"}, "journal's own scenario"},
		{"replay with obs filter", []string{"-replay-journal", "j", "-obs-filter", "epoch"}, "journal's own scenario"},
		{"undefined flag", []string{"-bogus"}, "-bogus"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout bytes.Buffer
			err := run(tc.args, &stdout, io.Discard)
			if !errors.As(err, new(usageError)) {
				t.Fatalf("err = %v, want a usage error", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %q, want substring %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Fatalf("rejected run wrote a report: %q", stdout.String())
			}
		})
	}
}

// TestFlagsAreScenarioSugar: a flag-defined run and the scenario file it
// lowers to produce the same report bytes. At -scale 16 the flags' samples
// per thread (figures.SamplesForScale) equal the files' default of 400.
func TestFlagsAreScenarioSugar(t *testing.T) {
	cases := []struct {
		name  string
		flags []string
		file  string
	}{
		{"single host",
			[]string{"-policy", "tpp", "-apps", "memcached, liblinear", "-scale", "16", "-seconds", "60",
				"-seed", "4", "-staggered", "-fault-rate", "0.05", "-fault-seed", "9"},
			`{"policy": "tpp", "seconds": 60, "seed": 4, "scale": 16,
			  "apps": [{"preset": "memcached"}, {"preset": "liblinear", "start_at_s": 55}],
			  "faults": {"rate": 0.05, "seed": 9}}`},
		{"fleet",
			[]string{"-fleet", "3", "-scheduler", "fairness", "-policy", "memtis", "-scale", "16",
				"-seconds", "12", "-seed", "3", "-faults", "light"},
			`{"policy": "memtis", "seconds": 12, "seed": 3, "scale": 16,
			  "apps": [{"preset": "memcached", "name": "memcached00"},
			           {"preset": "pagerank", "name": "pagerank01", "start_at_s": 1},
			           {"preset": "liblinear", "name": "liblinear02", "start_at_s": 2},
			           {"preset": "memcached", "name": "memcached03", "start_at_s": 3},
			           {"preset": "pagerank", "name": "pagerank04", "stop_at_s": 8},
			           {"preset": "liblinear", "name": "liblinear05", "start_at_s": 1}],
			  "faults": {"profile": "light"},
			  "fleet": {"hosts": 3, "scheduler": "fairness", "rebalance_every": 5, "move_budget": 2}}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "scenario.json")
			if err := os.WriteFile(path, []byte(tc.file), 0o644); err != nil {
				t.Fatal(err)
			}
			var fromFlags, fromFile bytes.Buffer
			if err := run(tc.flags, &fromFlags, io.Discard); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-config", path}, &fromFile, io.Discard); err != nil {
				t.Fatal(err)
			}
			if fromFlags.Len() == 0 || !bytes.Equal(fromFlags.Bytes(), fromFile.Bytes()) {
				t.Fatalf("flag run and scenario file diverge:\n--- flags\n%s--- file\n%s", &fromFlags, &fromFile)
			}
		})
	}
}

// TestCostProfilerLeavesTraceAlone: the cost profiler is an observer
// only, so a run's -trace-out bytes are the same with and without the
// cost artifact flags.
func TestCostProfilerLeavesTraceAlone(t *testing.T) {
	dir := t.TempDir()
	base := []string{"-scale", "16", "-seconds", "6", "-seed", "3"}
	trace := func(name string, extra ...string) []byte {
		path := filepath.Join(dir, name)
		args := append(append([]string{"-trace-out", path}, base...), extra...)
		if err := run(args, io.Discard, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := trace("plain.json")
	costed := trace("costed.json",
		"-costprofile", filepath.Join(dir, "cost.pb.gz"), "-cost-csv", filepath.Join(dir, "cost.csv"))
	if len(plain) == 0 || !bytes.Equal(plain, costed) {
		t.Fatalf("trace moved under the cost profiler: %d bytes without, %d with", len(plain), len(costed))
	}
}
