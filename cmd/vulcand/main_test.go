package main

import (
	"strings"
	"testing"
)

// TestParseFlagsRejects lists every flag combination vulcand refuses,
// each with the substring its error must carry.
func TestParseFlagsRejects(t *testing.T) {
	// with copies, so no two cases share a backing array.
	with := func(base []string, extra ...string) []string {
		return append(append([]string(nil), base...), extra...)
	}
	serve := []string{"-socket", "s.sock", "-journal", "run.journal"}
	resume := with(serve, "-resume")
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"no socket", []string{"-config", "c.json", "-journal", "j"}, "-socket is required"},
		{"post and get", []string{"-socket", "s", "-post", "/v1/step", "-get", "/v1/status"}, "mutually exclusive"},
		{"no journal", []string{"-socket", "s", "-config", "c.json"}, "-journal is required"},
		{"negative checkpoint-every", with(serve, "-config", "c.json", "-checkpoint-every", "-1"), "must be >= 0"},
		{"negative checkpoint-retain", with(serve, "-config", "c.json", "-checkpoint-retain", "-1"), "must be >= 0"},
		{"checkpoint-every without base", with(serve, "-config", "c.json", "-checkpoint-every", "5"), "needs -checkpoint-base"},
		{"negative speed", with(serve, "-config", "c.json", "-speed", "-1"), "-speed must be >= 0"},
		{"no config", serve, "-config is required"},
		{"resume with config", with(resume, "-config", "c.json"), "drop -config"},
		{"resume with rescore", with(resume, "-rescore"), "-rescore"},
		{"resume with rescore=false", with(resume, "-rescore=false"), "-rescore"},
		{"unknown flag", with(serve, "-nope"), "not defined"},
		{"max-backlog is unknown", with(serve, "-config", "c.json", "-max-backlog", "1"), "not defined"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("parseFlags(%q) = %v, want an error containing %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestParseFlagsAccepts pins the command lines the docs and the Makefile
// use, so a new rejection cannot catch them.
func TestParseFlagsAccepts(t *testing.T) {
	cases := [][]string{
		{"-config", "c.json", "-socket", "s", "-journal", "j", "-speed", "0", "-rescore"},
		{"-config", "c.json", "-socket", "s", "-journal", "j", "-checkpoint-base", "run.ckpt", "-checkpoint-every", "30"},
		{"-resume", "-socket", "s", "-journal", "j", "-checkpoint-base", "run.ckpt"},
		{"-socket", "s", "-post", "/v1/step", "-data", `{"epochs":10}`},
		{"-socket", "s", "-get", "/v1/status"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err != nil {
			t.Errorf("parseFlags(%q): %v", args, err)
		}
	}
}
