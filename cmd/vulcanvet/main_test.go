package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d, stderr: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, name := range []string{"determinism", "hotalloc", "snapfields"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
	}
}

func TestRunUsageError(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("exit = %d, want 2 for missing patterns", code)
	}
	if !strings.Contains(stderr.String(), "usage:") {
		t.Errorf("no usage message on stderr: %s", stderr.String())
	}
}

// TestRunEmitsReports drives the full pipeline over one small package
// and checks the SARIF report parses. The tree is vet-clean, so the run
// must exit 0 while still writing the (empty) artifact CI uploads.
func TestRunEmitsReports(t *testing.T) {
	dir := t.TempDir()
	sarifPath := filepath.Join(dir, "out", "vulcanvet.sarif")
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sarif", sarifPath, "./internal/sim"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit = %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}

	sarif, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []any `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(sarif, &log); err != nil {
		t.Fatalf("SARIF artifact does not parse: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Errorf("version = %q, runs = %d", log.Version, len(log.Runs))
	}
	if log.Runs[0].Results == nil {
		t.Error("clean run emitted null results; code scanning rejects that")
	}
}
