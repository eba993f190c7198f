package driver

import (
	"encoding/json"
	"io"
	"path/filepath"
	"strings"

	"vulcan/internal/analysis"
)

// This file renders findings for machines: SARIF 2.1.0 for GitHub code
// scanning (inline PR annotations).

const (
	sarifSchema  = "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json"
	sarifVersion = "2.1.0"
)

type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifToolDriver `json:"driver"`
}

type sarifToolDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string    `json:"id"`
	ShortDescription sarifText `json:"shortDescription"`
}

type sarifText struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log. Every analyzer in
// the suite appears as a rule — an empty results array with the full
// rule set is the "clean run" artifact CI uploads on green builds.
// Paths are made relative to root so the URIs resolve in the repository
// the code-scanning service annotates.
func WriteSARIF(w io.Writer, root string, analyzers []*analysis.Analyzer, findings []Finding) error {
	run := sarifRun{
		Tool: sarifTool{Driver: sarifToolDriver{
			Name:  "vulcanvet",
			Rules: make([]sarifRule, 0, len(analyzers)),
		}},
		Results: make([]sarifResult, 0, len(findings)),
	}
	for _, a := range analyzers {
		run.Tool.Driver.Rules = append(run.Tool.Driver.Rules, sarifRule{
			ID:               a.Name,
			ShortDescription: sarifText{Text: a.Doc},
		})
	}
	for _, f := range findings {
		loc := sarifLocation{PhysicalLocation: sarifPhysicalLocation{
			ArtifactLocation: sarifArtifactLocation{URI: relURI(root, f.Pos.Filename)},
			Region:           sarifRegion{StartLine: max(f.Pos.Line, 1), StartColumn: f.Pos.Column},
		}}
		run.Results = append(run.Results, sarifResult{
			RuleID:    f.Analyzer,
			Level:     "error",
			Message:   sarifText{Text: f.Message},
			Locations: []sarifLocation{loc},
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sarifLog{Schema: sarifSchema, Version: sarifVersion, Runs: []sarifRun{run}})
}

// relURI converts an absolute source path to a root-relative,
// slash-separated URI; paths outside root pass through slash-converted.
func relURI(root, filename string) string {
	if filename == "" {
		return ""
	}
	if rel, err := filepath.Rel(root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}
