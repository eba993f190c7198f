package driver_test

import (
	"bytes"
	"encoding/json"
	"go/token"
	"strings"
	"testing"

	"vulcan/internal/analysis"
	"vulcan/internal/analysis/driver"
)

func testFindings() []driver.Finding {
	return []driver.Finding{
		{
			Analyzer: "hotalloc",
			Pos:      token.Position{Filename: "/repo/internal/migrate/engine.go", Line: 42, Column: 7},
			Message:  "make allocates in //vulcan:hotpath function MigrateSync",
		},
		{
			Analyzer: "snapfields",
			Pos:      token.Position{Filename: "/repo/internal/system/app.go", Line: 9, Column: 2},
			Message:  "field App.x is written during simulation but never referenced in Snapshot/Restore",
		},
	}
}

func TestWriteSARIF(t *testing.T) {
	var buf bytes.Buffer
	if err := driver.WriteSARIF(&buf, "/repo", analysis.Suite(), testFindings()); err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine   int `json:"startLine"`
							StartColumn int `json:"startColumn"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("emitted SARIF does not parse: %v\n%s", err, buf.String())
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-schema-2.1.0") {
		t.Errorf("version/schema = %q / %q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "vulcanvet" {
		t.Errorf("tool name = %q", run.Tool.Driver.Name)
	}
	// Every suite analyzer must be declared as a rule, even those with
	// no findings — the clean-run artifact still names the contracts.
	if len(run.Tool.Driver.Rules) != len(analysis.Suite()) {
		t.Errorf("got %d rules, want %d", len(run.Tool.Driver.Rules), len(analysis.Suite()))
	}
	if len(run.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(run.Results))
	}
	first := run.Results[0]
	if first.RuleID != "hotalloc" || first.Level != "error" {
		t.Errorf("result 0 = %+v", first)
	}
	loc := first.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/migrate/engine.go" {
		t.Errorf("URI = %q, want repo-relative slash path", loc.ArtifactLocation.URI)
	}
	if loc.Region.StartLine != 42 || loc.Region.StartColumn != 7 {
		t.Errorf("region = %+v", loc.Region)
	}
}

func TestWriteSARIFEmptyIsValid(t *testing.T) {
	var buf bytes.Buffer
	if err := driver.WriteSARIF(&buf, "/repo", analysis.Suite(), nil); err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(buf.Bytes(), &log); err != nil {
		t.Fatalf("clean-run SARIF does not parse: %v", err)
	}
	// results must be [] rather than null: the code-scanning API
	// rejects a null results array.
	if !strings.Contains(buf.String(), `"results": []`) {
		t.Errorf("clean run should emit an empty results array:\n%s", buf.String())
	}
}
