package main

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestRunModes drives every mode through run's dispatch at small
// arguments (a case's own flags override them): each one renders
// something or fails with an error, and none panics.
func TestRunModes(t *testing.T) {
	small := []string{"-seconds", "4", "-scale", "16", "-trials", "1"}
	cases := []struct {
		name string
		args []string
		want string // a substring the output must carry
	}{
		{"fig 1", []string{"-fig", "1"}, "Figure 1"},
		{"fig 2", []string{"-fig", "2"}, "Figure 2"},
		{"fig 3", []string{"-fig", "3"}, "Figure 3"},
		{"fig 4", []string{"-fig", "4"}, "Figure 4"},
		{"fig 6", []string{"-fig", "6"}, "Figure 6"},
		{"fig 7", []string{"-fig", "7"}, "Figure 7"},
		{"fig 8", []string{"-fig", "8"}, "Figure 8"},
		{"fig 9", []string{"-fig", "9"}, "Figure 9"},
		// Liblinear arrives at 110 s: a shorter run never starts it.
		{"fig 9 short", []string{"-fig", "9", "-seconds", "60", "-scale", "8"}, "liblinear  (never started)"},
		{"fig 10", []string{"-fig", "10"}, "Figure 10"},
		{"table 1", []string{"-table", "1"}, "Table 1"},
		{"table 2", []string{"-table", "2"}, "Table 2"},
		{"ablations", []string{"-ablations"}, "blation"},
		{"figr", []string{"-figr"}, "Figure R"},
		{"figf", []string{"-figf"}, "Figure F"},
		{"all", []string{"-all"}, "Table 2"},
		{"all csv", []string{"-all", "-csv"}, ","},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if err := run(append(append([]string(nil), small...), tc.args...), &out, &errOut); err != nil {
				t.Fatalf("run(%q): %v\n%s", tc.args, err, errOut.String())
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("run(%q) output lacks %q:\n%s", tc.args, tc.want, out.String())
			}
		})
	}
}

// TestRunRejectsEmptySelection: a command line that selects nothing, or
// does not parse, is a usage error.
func TestRunRejectsEmptySelection(t *testing.T) {
	for _, args := range [][]string{{}, {"-fig", "5"}, {"-nope"}} {
		var out, errOut bytes.Buffer
		if err := run(args, &out, &errOut); !errors.Is(err, errUsage) {
			t.Errorf("run(%q) = %v, want the usage error", args, err)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) wrote %q to stdout", args, out.String())
		}
	}
}
