package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/scenario"
)

// testScenario is a small churn-heavy serving scenario: one resident
// preset plus a Poisson arrival process of single-thread instances.
func testScenario(seconds int) scenario.File {
	return scenario.File{
		Policy: "vulcan", Seconds: seconds, Seed: 5, Scale: 8,
		Apps: []scenario.App{{Preset: "memcached"}},
		Arrivals: &scenario.Arrivals{
			RatePerEpoch: 0.4, Seed: 11,
			LifetimeMinEpochs: 3, LifetimeMaxEpochs: 8, MaxLive: 2,
			Template: scenario.App{Name: "churn", Class: "BE", Threads: 1,
				RSSPages: 2048, Generator: "uniform"},
		},
	}
}

// testScript is the scripted API session both golden tests drive: an
// admit, an intensity change, an early stop, and a late intensity
// change (the last lands after the crash-recovery test's kill point).
func testScript() map[int][]Cmd {
	burst := &scenario.App{Name: "burst", Class: "BE", Threads: 1,
		RSSPages: 2048, Generator: "zipf"}
	return map[int][]Cmd{
		2:  {{Op: "admit", App: burst, Depart: 20}},
		6:  {{Op: "intensity", Name: "burst", Milli: 500}},
		10: {{Op: "stop", Name: "burst"}},
		16: {{Op: "intensity", Name: "memcached", Milli: 700}},
	}
}

// drive steps the session until stopEpoch (or completion), enqueueing
// the script's commands at their boundaries. Boundaries still under
// journal replay get no script commands — their execution is already
// recorded.
func drive(t *testing.T, s *Session, script map[int][]Cmd, stopEpoch int) {
	t.Helper()
	for !s.Finished() && s.Epoch() < stopEpoch {
		if e := s.Epoch(); e > s.journaledThrough {
			for _, c := range script[e] {
				if err := s.Enqueue(c); err != nil {
					t.Fatalf("enqueue at epoch %d: %v", e, err)
				}
			}
		}
		if err := s.Step(); err != nil {
			t.Fatalf("step at epoch %d: %v", s.Epoch(), err)
		}
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runLive executes a full scripted live session in dir and returns its
// artifact paths.
func runLive(t *testing.T, dir string, opts Options) (trace, metrics, journal string) {
	t.Helper()
	opts.Scenario = testScenario(24)
	opts.TraceOut = filepath.Join(dir, "trace.json")
	opts.MetricsOut = filepath.Join(dir, "metrics.csv")
	opts.Journal = filepath.Join(dir, "run.journal")
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, s, testScript(), 1<<30)
	if !s.Finished() {
		t.Fatal("session did not finish")
	}
	if len(s.Errs()) != 0 {
		t.Fatalf("scripted session rejected commands: %v", s.Errs())
	}
	return opts.TraceOut, opts.MetricsOut, opts.Journal
}

// TestStreamingParity is the tentpole golden test: a scripted live
// session's streamed trace and metrics CSV are byte-identical to the
// batch exporters replaying its journal, and the replayed run's report
// matches the live one.
func TestStreamingParity(t *testing.T) {
	dir := t.TempDir()
	tracePath, metricsPath, journalPath := runLive(t, dir, Options{Rescore: true})

	jd, err := ReadJournal(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !jd.Finished || jd.FinishEpoch != 24 {
		t.Fatalf("journal not sealed: %+v", jd)
	}
	if len(jd.Batches) == 0 {
		t.Fatal("scripted session journaled nothing")
	}
	sawArrival := false
	for _, b := range jd.Batches {
		for _, c := range b.Cmds {
			if c.Src == "arrival" {
				sawArrival = true
			}
		}
	}
	if !sawArrival {
		t.Fatal("no arrival-process admissions journaled")
	}

	r, err := Replay(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.Errs()) != 0 {
		t.Fatalf("replay rejected commands: %v", r.Errs())
	}

	var replayTrace, replayMetrics bytes.Buffer
	if err := r.WriteTrace(&replayTrace); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteMetrics(&replayMetrics); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readFile(t, tracePath), replayTrace.Bytes()) {
		t.Error("streamed trace differs from batch replay of the journal")
	}
	if !bytes.Equal(readFile(t, metricsPath), replayMetrics.Bytes()) {
		t.Error("streamed metrics CSV differs from batch replay of the journal")
	}

	// Replays are also stable against each other.
	var a, b bytes.Buffer
	r2, err := Replay(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Run(); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReport(&a, true); err != nil {
		t.Fatal(err)
	}
	if err := r2.WriteReport(&b, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two replays of the same journal disagree")
	}
}

// TestCrashRecovery is the kill-and-resume golden test: a session
// killed mid-run resumes from its newest rolling checkpoint plus
// journal tail and finishes with artifacts byte-identical to the
// uninterrupted run — even with a torn trailing journal line.
func TestCrashRecovery(t *testing.T) {
	// Reference: the same scripted session, uninterrupted.
	refDir := t.TempDir()
	refTrace, refMetrics, refJournal := runLive(t, refDir, Options{})

	// Victim: same script, rolling checkpoints every 6 epochs, killed
	// after completing epoch 14 (newest checkpoint: epoch 12).
	dir := t.TempDir()
	opts := Options{
		Scenario:         testScenario(24),
		TraceOut:         filepath.Join(dir, "trace.json"),
		MetricsOut:       filepath.Join(dir, "metrics.csv"),
		Journal:          filepath.Join(dir, "run.journal"),
		CheckpointBase:   filepath.Join(dir, "run.ckpt"),
		CheckpointEvery:  6,
		CheckpointRetain: 2,
	}
	victim, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, victim, testScript(), 14)
	if victim.Epoch() != 14 {
		t.Fatalf("victim at epoch %d, want 14", victim.Epoch())
	}
	// Kill: abandon the session without Suspend — the journal is fsynced
	// per batch and the streams flushed per epoch, so this models a
	// process kill at an epoch boundary. Tear the journal tail too, as a
	// mid-append kill would.
	f, err := os.OpenFile(opts.Journal, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"epoch":14,"cmds":[{"op":"st`)
	f.Close()

	if _, epoch, ok, err := checkpoint.LatestRolling(opts.CheckpointBase); err != nil || !ok || epoch != 12 {
		t.Fatalf("latest rolling = (%d, %t, %v), want epoch 12", epoch, ok, err)
	}

	recovered, err := Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Epoch() != 12 {
		t.Fatalf("recovered at epoch %d, want 12", recovered.Epoch())
	}
	drive(t, recovered, testScript(), 1<<30)
	if !recovered.Finished() {
		t.Fatal("recovered session did not finish")
	}
	if len(recovered.Errs()) != 0 {
		t.Fatalf("recovered session rejected commands: %v", recovered.Errs())
	}

	if !bytes.Equal(readFile(t, refTrace), readFile(t, opts.TraceOut)) {
		t.Error("recovered trace differs from the uninterrupted run")
	}
	if !bytes.Equal(readFile(t, refMetrics), readFile(t, opts.MetricsOut)) {
		t.Error("recovered metrics differ from the uninterrupted run")
	}
	if !bytes.Equal(readFile(t, refJournal), readFile(t, opts.Journal)) {
		t.Error("recovered journal differs from the uninterrupted run")
	}

	// Retention: checkpoints landed at 6, 12, 18; keep-2 leaves 12, 18.
	if _, err := os.Stat(checkpoint.RollingPath(opts.CheckpointBase, 6)); !os.IsNotExist(err) {
		t.Errorf("epoch-6 checkpoint not pruned (err=%v)", err)
	}
	for _, e := range []int{12, 18} {
		if _, err := os.Stat(checkpoint.RollingPath(opts.CheckpointBase, e)); err != nil {
			t.Errorf("epoch-%d checkpoint missing: %v", e, err)
		}
	}
}

// TestRecoverWithoutCheckpoint: losing every rolling image degrades to
// a cold replay of the journal prefix, not data loss.
func TestRecoverWithoutCheckpoint(t *testing.T) {
	refDir := t.TempDir()
	refTrace, refMetrics, refJournal := runLive(t, refDir, Options{})

	dir := t.TempDir()
	opts := Options{
		Scenario:   testScenario(24),
		TraceOut:   filepath.Join(dir, "trace.json"),
		MetricsOut: filepath.Join(dir, "metrics.csv"),
		Journal:    filepath.Join(dir, "run.journal"),
	}
	victim, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, victim, testScript(), 17)

	// No CheckpointBase was ever configured: Recover restarts cold.
	recovered, err := Recover(opts)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Epoch() != 0 {
		t.Fatalf("cold recovery should restart at epoch 0, got %d", recovered.Epoch())
	}
	drive(t, recovered, testScript(), 1<<30)
	if !recovered.Finished() {
		t.Fatal("recovered session did not finish")
	}

	if !bytes.Equal(readFile(t, refTrace), readFile(t, opts.TraceOut)) {
		t.Error("cold-recovered trace differs from the uninterrupted run")
	}
	if !bytes.Equal(readFile(t, refMetrics), readFile(t, opts.MetricsOut)) {
		t.Error("cold-recovered metrics differ from the uninterrupted run")
	}
	if !bytes.Equal(readFile(t, refJournal), readFile(t, opts.Journal)) {
		t.Error("cold-recovered journal differs from the uninterrupted run")
	}
}

// TestSessionRejections: state-dependent command failures land in Errs
// and are never journaled, so replays reproduce the run regardless.
func TestSessionRejections(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		Scenario: testScenario(6),
		Journal:  filepath.Join(dir, "run.journal"),
	}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}

	// Shape errors are rejected at Enqueue.
	if err := s.Enqueue(Cmd{Op: "resize"}); err == nil {
		t.Error("unknown op accepted")
	}
	if err := s.Enqueue(Cmd{Op: "stop"}); err == nil {
		t.Error("nameless stop accepted")
	}
	if err := s.Enqueue(Cmd{Op: "intensity", Name: "x", Milli: 0}); err == nil {
		t.Error("zero intensity accepted")
	}
	if err := s.Enqueue(Cmd{Op: "admit"}); err == nil {
		t.Error("admit without a spec accepted")
	}
	if err := s.Enqueue(Cmd{Op: "admit",
		App: &scenario.App{Name: "bad", Threads: 1}}); err == nil {
		t.Error("admit with zero RSS accepted")
	}

	// State errors surface at the boundary, in Errs.
	if err := s.Enqueue(Cmd{Op: "stop", Name: "nobody"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if len(s.Errs()) != 1 {
		t.Fatalf("errs = %v, want the rejected stop", s.Errs())
	}
	for !s.Finished() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}

	// The rejection never reached the journal.
	jd, err := ReadJournal(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range jd.Batches {
		for _, c := range b.Cmds {
			if c.Op == "stop" && c.Name == "nobody" {
				t.Fatal("rejected command was journaled")
			}
		}
	}
}

// TestEnqueueRejectsPremapAdmit: a preset admit whose premap fraction is
// out of range is rejected at Enqueue, never reaches a boundary, and the
// session runs to completion.
func TestEnqueueRejectsPremapAdmit(t *testing.T) {
	s, err := NewSession(Options{Scenario: testScenario(4)})
	if err != nil {
		t.Fatal(err)
	}
	bad := Cmd{Op: "admit", App: &scenario.App{Preset: "memcached", PremapFraction: 3}}
	if err := s.Enqueue(bad); err == nil || !strings.Contains(err.Error(), "premap fraction") {
		t.Fatalf("premap admit: err = %v, want a premap rejection", err)
	}
	for !s.Finished() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Errs()) != 0 {
		t.Fatalf("errs = %v, want none", s.Errs())
	}
}

// TestAdmitLargerThanMachineRejected: an admit whose RSS exceeds the
// machine's fast and slow tiers together lands in Errs instead of
// panicking at admission, is never journaled, and the journal replay
// still matches the live run.
func TestAdmitLargerThanMachineRejected(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Scenario: testScenario(4), Journal: filepath.Join(dir, "run.journal")}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	big := Cmd{Op: "admit", App: &scenario.App{Name: "big", Threads: 1,
		RSSPages: 4194304, Generator: "uniform"}}
	if err := s.Enqueue(big); err != nil {
		t.Fatal(err)
	}
	for !s.Finished() {
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.Errs()) != 1 || !strings.Contains(s.Errs()[0], "big") {
		t.Fatalf("errs = %v, want the rejected admit", s.Errs())
	}

	r, err := Replay(opts.Journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(); err != nil {
		t.Fatal(err)
	}
	var live, replayed bytes.Buffer
	if err := s.WriteReport(&live, true); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteReport(&replayed, true); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(live.Bytes(), replayed.Bytes()) {
		t.Fatal("journal replay report differs from the live session's")
	}
}

// TestUnknownPolicyErrors: a scenario naming a policy outside
// figures.PolicyNames fails every constructor with an error instead of
// panicking inside the policy factory.
func TestUnknownPolicyErrors(t *testing.T) {
	dir := t.TempDir()
	sc := testScenario(4)
	sc.Policy = "bogus"
	if _, err := NewSession(Options{Scenario: sc, Journal: filepath.Join(dir, "new.journal")}); err == nil {
		t.Error("NewSession accepted policy \"bogus\"")
	}
	hdr := `{"v":2,"scenario":{"policy":"bogus","seconds":5,"seed":1,"apps":[{"preset":"memcached"}]}}` + "\n"
	journal := filepath.Join(dir, "bogus.journal")
	if err := os.WriteFile(journal, []byte(hdr), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(journal); err == nil {
		t.Error("Replay accepted a journal with policy \"bogus\"")
	}
	if _, err := Recover(Options{Journal: journal}); err == nil {
		t.Error("Recover accepted a journal with policy \"bogus\"")
	}
}

// openFDs counts the process's open file descriptors; ok is false where
// /proc is absent.
func openFDs() (n int, ok bool) {
	ents, err := os.ReadDir("/proc/self/fd")
	return len(ents), err == nil
}

// TestRecoverStreamMismatch: a Recover whose stream flags disagree with
// the checkpoint errors out without leaking a file or sealing a
// mid-run artifact, so the corrected Recover still finishes
// byte-identical to the uninterrupted run.
func TestRecoverStreamMismatch(t *testing.T) {
	refTrace, refMetrics, refJournal := runLive(t, t.TempDir(), Options{})
	ref := map[string][]byte{
		"trace.json":  readFile(t, refTrace),
		"metrics.csv": readFile(t, refMetrics),
		"run.journal": readFile(t, refJournal),
	}
	cases := []struct {
		name           string
		trace, metrics bool // the streams the suspended session ran with
		mismatch       func(o *Options)
		want           string
	}{
		{"trace required", true, true, func(o *Options) { o.TraceOut = "" }, "-trace-out required"},
		{"no trace stream", false, true, func(o *Options) { o.TraceOut = o.Journal + ".trace.json" }, "no trace stream"},
		{"metrics required", true, true, func(o *Options) { o.MetricsOut = "" }, "-metrics-out required"},
		{"no metrics stream", true, false, func(o *Options) { o.MetricsOut = o.Journal + ".metrics.csv" }, "no metrics stream"},
		{"metrics artifact missing", true, true, func(o *Options) { o.MetricsOut += ".missing" }, "no such file"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				Scenario:        testScenario(24),
				Journal:         filepath.Join(dir, "run.journal"),
				CheckpointBase:  filepath.Join(dir, "run.ckpt"),
				CheckpointEvery: 6,
			}
			if tc.trace {
				opts.TraceOut = filepath.Join(dir, "trace.json")
			}
			if tc.metrics {
				opts.MetricsOut = filepath.Join(dir, "metrics.csv")
			}
			victim, err := NewSession(opts)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, victim, testScript(), 14)
			if err := victim.Suspend(); err != nil {
				t.Fatal(err)
			}

			bad := opts
			tc.mismatch(&bad)
			before, haveProc := openFDs()
			if _, err := Recover(bad); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("mismatched Recover: err = %v, want %q", err, tc.want)
			}
			if after, _ := openFDs(); haveProc && after != before {
				t.Errorf("failed Recover leaked %d file descriptors", after-before)
			}
			// Nothing was sealed: every artifact is still a prefix of the
			// finished run's.
			for name, want := range ref {
				if b, err := os.ReadFile(filepath.Join(dir, name)); err == nil && !bytes.HasPrefix(want, b) {
					t.Errorf("failed Recover left %s that is no prefix of the finished run's", name)
				}
			}

			recovered, err := Recover(opts)
			if err != nil {
				t.Fatal(err)
			}
			drive(t, recovered, testScript(), 1<<30)
			if !recovered.Finished() {
				t.Fatal("recovered session did not finish")
			}
			for _, path := range []string{opts.TraceOut, opts.MetricsOut, opts.Journal} {
				if path != "" && !bytes.Equal(ref[filepath.Base(path)], readFile(t, path)) {
					t.Errorf("recovered %s differs from the uninterrupted run", filepath.Base(path))
				}
			}
		})
	}
}

// TestSessionAuditsEveryEpoch drives the scripted serve scenario (the
// one vulcanbench serves: arrivals, an admit, a stop) and audits the
// system after every epoch, so frame ownership and the page-table leaf
// masks hold at each boundary, across admissions and retirements.
func TestSessionAuditsEveryEpoch(t *testing.T) {
	s, err := NewSession(Options{Scenario: testScenario(24)})
	if err != nil {
		t.Fatal(err)
	}
	script := testScript()
	for !s.Finished() {
		for _, c := range script[s.Epoch()] {
			if err := s.Enqueue(c); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Step(); err != nil {
			t.Fatal(err)
		}
		if rep := s.System().Audit(); !rep.Ok() {
			t.Fatalf("epoch %d: %v: %v", s.Epoch(), rep, rep.Errors)
		}
	}
	if len(s.Errs()) != 0 {
		t.Fatalf("scripted session rejected commands: %v", s.Errs())
	}
}

// TestEnqueueRejectsUnsafeNames: an admit whose name carries a CSV or
// metric-label separator is rejected at Enqueue, so every metrics-CSV
// row the session writes keeps exactly four columns.
func TestEnqueueRejectsUnsafeNames(t *testing.T) {
	opts := Options{Scenario: testScenario(4), MetricsOut: filepath.Join(t.TempDir(), "metrics.csv")}
	s, err := NewSession(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"x,y", "p}q", "n\nl"} {
		admit := Cmd{Op: "admit", App: &scenario.App{Name: name, Class: "BE", Threads: 1,
			RSSPages: 2048, Generator: "uniform"}}
		if err := s.Enqueue(admit); err == nil || !strings.Contains(err.Error(), "app name") {
			t.Errorf("admit %q: err = %v, want an app-name rejection", name, err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(readFile(t, opts.MetricsOut)), "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("metrics CSV has %d lines", len(lines))
	}
	for _, l := range lines {
		if strings.Count(l, ",") != 3 {
			t.Fatalf("row %q does not have four columns", l)
		}
	}
}
