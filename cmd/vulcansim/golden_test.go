package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden.json from current output")

// goldenCases are small vulcansim invocations covering every run mode.
// "$D" in an argument names the case's scratch directory; every file a
// case leaves there is an artifact whose bytes are pinned.
var goldenCases = []struct {
	name  string
	steps [][]string
}{
	{"flags-artifacts", [][]string{{"-scale", "16", "-seconds", "6", "-seed", "3",
		"-series", "$D/series.csv", "-trace-out", "$D/trace.json", "-metrics-out", "$D/metrics.csv",
		"-costprofile", "$D/cost.pb.gz", "-cost-csv", "$D/cost.csv"}}},
	{"staggered", [][]string{{"-policy", "memtis", "-scale", "16", "-seconds", "6", "-staggered", "-json",
		"-checkpoint-out", "$D/run.ckpt"}}},
	{"seeds2-faults", [][]string{{"-scale", "16", "-seconds", "6", "-seed", "7", "-seeds", "2",
		"-faults", "moderate", "-series", "$D/series.csv", "-trace-out", "$D/trace.json",
		"-metrics-out", "$D/metrics.csv"}}},
	{"config-single", [][]string{{"-config", "testdata/single.json",
		"-series", "$D/series.csv", "-metrics-out", "$D/metrics.csv"}}},
	{"config-fleet", [][]string{{"-config", "testdata/fleet.json", "-json"}}},
	{"fleet-flags", [][]string{
		{"-fleet", "3", "-scheduler", "vulcan", "-scale", "16", "-seconds", "6",
			"-seed", "4", "-faults", "light", "-checkpoint-out", "$D/fleet.ckpt"},
		{"-fleet", "3", "-scheduler", "vulcan", "-scale", "16", "-seconds", "6",
			"-seed", "4", "-faults", "light", "-resume", "$D/fleet.ckpt", "-json"},
	}},
	{"checkpoint-resume", [][]string{
		{"-scale", "16", "-seconds", "4", "-seed", "2", "-checkpoint-out", "$D/run.ckpt",
			"-checkpoint-every", "2", "-trace-out", "$D/first.json"},
		{"-scale", "16", "-seconds", "2", "-seed", "2", "-resume", "$D/run.ckpt",
			"-trace-out", "$D/resumed.json", "-series", "$D/series.csv"},
	}},
}

// runCLI runs one vulcansim invocation, writing its report to stdout.
func runCLI(args []string, stdout io.Writer) error {
	return run(args, stdout, io.Discard)
}

// TestVulcansimGolden pins the bytes vulcansim emits — every step's
// stdout and every artifact file — for a fixed set of invocations, as
// sha256 digests. A refactor must leave testdata/golden.json untouched;
// regenerate it with
//
//	go test ./cmd/vulcansim -run TestVulcansimGolden -update-golden
//
// only when a change is meant to move vulcansim's output, and say why.
func TestVulcansimGolden(t *testing.T) {
	got := make(map[string]map[string]string)
	for _, c := range goldenCases {
		dir := t.TempDir()
		digests := make(map[string]string)
		for i, step := range c.steps {
			args := make([]string, len(step))
			for j, a := range step {
				args[j] = strings.ReplaceAll(a, "$D", dir)
			}
			var stdout bytes.Buffer
			if err := runCLI(args, &stdout); err != nil {
				t.Fatalf("%s step %d: %v", c.name, i, err)
			}
			digests[fmt.Sprintf("stdout%d", i)] = digest(stdout.Bytes())
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			digests[e.Name()] = digest(b)
		}
		got[c.name] = digests
	}

	path := filepath.Join("testdata", "golden.json")
	if *updateGolden {
		b, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	var want map[string]map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden file unreadable: %v", err)
	}
	for _, c := range goldenCases {
		for name, sum := range want[c.name] {
			if got[c.name][name] != sum {
				t.Errorf("%s: %s digest moved (or artifact missing)", c.name, name)
			}
		}
		for name := range got[c.name] {
			if _, ok := want[c.name][name]; !ok {
				t.Errorf("%s: unexpected artifact %s", c.name, name)
			}
		}
	}
	if len(want) != len(goldenCases) {
		t.Errorf("golden has %d cases, test runs %d", len(want), len(goldenCases))
	}
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}
