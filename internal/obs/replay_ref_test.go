package obs_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vulcan/internal/obs"
	"vulcan/internal/scenario"
	"vulcan/internal/serve"
)

// TestServeReplaySampleLogMatchesReference drives a live serve session
// with tenant churn, replays its journal into a batch recorder, and
// requires the replay's sample log to match the reference row-at-a-time
// log: its Snapshot and WriteMetricsCSV bytes, and the CSV the live
// session streamed through its row memos.
func TestServeReplaySampleLogMatchesReference(t *testing.T) {
	dir := t.TempDir()
	opts := serve.Options{
		Scenario: scenario.File{
			Policy: "vulcan", Seconds: 24, Seed: 5, Scale: 8,
			Apps: []scenario.App{{Preset: "memcached"}},
			Arrivals: &scenario.Arrivals{
				RatePerEpoch: 0.4, Seed: 11,
				LifetimeMinEpochs: 3, LifetimeMaxEpochs: 8, MaxLive: 2,
				Template: scenario.App{Name: "churn", Class: "BE", Threads: 1,
					RSSPages: 2048, Generator: "uniform"},
			},
		},
		MetricsOut: filepath.Join(dir, "metrics.csv"),
		Journal:    filepath.Join(dir, "run.journal"),
	}
	live, err := serve.NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Run(); err != nil {
		t.Fatal(err)
	}
	rp, err := serve.Replay(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := rp.Run(); err != nil {
		t.Fatal(err)
	}
	rec, ok := rp.System().Obs().(*obs.Recorder)
	if !ok {
		t.Fatal("replay carries no recorder")
	}
	want, err := obs.ReferenceMetricsCSV(rec)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := os.ReadFile(opts.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, want) {
		t.Fatal("streamed metrics CSV differs from the reference log's")
	}
	if n := bytes.Count(want, []byte("\n")); n < 24*20 {
		t.Fatalf("reference CSV has %d lines; the session recorded too little to compare", n)
	}
}
