package serve

import (
	"bytes"
	"fmt"
	"io"
	"os"

	"vulcan/internal/checkpoint"
	"vulcan/internal/obs"
	"vulcan/internal/scenario"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// Options configures a serving session. The scenario supplies the
// machine, policy, baseline apps and the run's epoch target (Seconds);
// everything else is daemon plumbing.
type Options struct {
	Scenario scenario.File

	// TraceOut / MetricsOut stream telemetry artifacts incrementally;
	// empty disables that artifact (and with both empty, telemetry
	// entirely).
	TraceOut   string
	MetricsOut string

	// Journal is the command journal path. Live sessions require it —
	// the journal IS the run's reproducibility story; replay reads it.
	Journal string

	// CheckpointBase/Every/Retain arm rolling interim checkpoints:
	// every N completed epochs a full-state image lands next to base
	// (base.tNNN.ext), keeping the newest Retain images (0 = all).
	CheckpointBase   string
	CheckpointEvery  int
	CheckpointRetain int

	// Rescore mirrors system.Config.IncrementalRescore; it is journaled
	// so replays match.
	Rescore bool
}

// departure is one scheduled stop derived from an admit's Depart field,
// registered in admission order.
type departure struct {
	epoch int
	name  string
}

// Session is one serving run: a dynamic system advanced epoch by epoch,
// with commands applied at epoch boundaries, telemetry streamed, and
// every executed command journaled. The same type runs all three modes:
//
//   - live: commands arrive via Enqueue, arrivals from the scenario's
//     churn plan; executed batches append to the journal.
//   - replay: the journal's batches are re-applied at their boundaries
//     (Replay); nothing is journaled.
//   - recovery: a rolling checkpoint restores mid-run state, the
//     journal tail replays past it, then the session goes live again
//     (Recover).
//
// Step is not safe for concurrent use; the daemon serializes it against
// its control handlers.
type Session struct {
	opts   Options
	parsed *scenario.Parsed
	sys    *system.System
	target int

	rec              *obs.Recorder
	ts               *obs.TraceStream
	cs               *obs.CSVStream
	traceF, metricsF *os.File

	journal *Journal

	// plan is the expanded arrival process; planIdx the next entry not
	// yet reached. Replayed boundaries advance planIdx without applying
	// (their successful arrivals are in the journal; their failed ones
	// must stay skipped).
	plan    []workload.Arrival
	planIdx int

	// departures holds scheduled stops derived from admits, in
	// admission order; applyDepartures scans it at each boundary.
	departures []departure

	// replay maps boundary epoch -> journaled batch; boundaries at or
	// below journaledThrough re-apply from here instead of accepting
	// new commands.
	replay           map[int][]Cmd
	journaledThrough int

	// pending queues live API commands for the next boundary.
	pending []Cmd

	// errs records rejected live commands (epoch-tagged); a rejected
	// command is never journaled, so replays skip it by construction.
	errs []string

	finished bool
}

// NewSession opens a live serving session: fresh system, fresh
// artifacts, fresh journal.
func NewSession(opts Options) (*Session, error) { return open(opts, nil, "", false) }

// Replay rebuilds a run from its journal in batch mode: no streams, no
// journaling — telemetry buffers in the recorder and renders through
// the batch exporters, which must be byte-identical to what the live
// session streamed. An unfinished journal replays its recorded prefix
// and completes the run from the arrival plan.
func Replay(journalPath string) (*Session, error) {
	jd, err := ReadJournal(journalPath)
	if err != nil {
		return nil, err
	}
	return open(Options{}, jd, "", true)
}

// Recover resumes a killed session from its journal and newest rolling
// checkpoint. The journal header's scenario and simulation knobs win
// over opts (a resumed run must match the original); artifact and
// checkpoint paths still come from opts. Without a usable checkpoint
// the session restarts cold and re-runs the journaled prefix — slower,
// same bytes.
func Recover(opts Options) (*Session, error) {
	jd, err := ReadJournal(opts.Journal)
	if err != nil {
		return nil, err
	}
	if jd.Finished {
		return nil, fmt.Errorf("serve: journal %s records a finished run; nothing to recover", opts.Journal)
	}
	image := ""
	if opts.CheckpointBase != "" {
		path, _, ok, err := checkpoint.LatestRolling(opts.CheckpointBase)
		if err != nil {
			return nil, err
		}
		if ok {
			image = path
		}
	}
	return open(opts, jd, image, false)
}

// open is the one session constructor behind NewSession, Replay and
// Recover. jd is the journal to re-apply (nil for a fresh run): its
// header's scenario and knobs replace opts', and its batches replay at
// their boundaries. image, when set, is the rolling checkpoint to
// restore from instead of starting cold. batch buffers telemetry in the
// recorder instead of streaming it, and journals nothing. Every failure
// releases what was opened without sealing it, so the artifacts stay
// as a kill would leave them and a corrected retry can still recover.
func open(opts Options, jd *JournalData, image string, batch bool) (_ *Session, err error) {
	if jd != nil {
		opts.Scenario = jd.Header.Scenario
		opts.Rescore = jd.Header.Rescore
	}
	parsed, err := scenario.Resolve(opts.Scenario)
	if err != nil {
		return nil, err
	}
	if parsed.Fleet != nil {
		return nil, fmt.Errorf("serve: fleet scenarios cannot be served (one dynamic host only)")
	}
	s := &Session{
		opts:             opts,
		parsed:           parsed,
		target:           int(parsed.Duration / sim.Duration(sim.Second)),
		replay:           map[int][]Cmd{},
		journaledThrough: -1,
	}
	defer func() {
		if err != nil {
			s.release(false)
		}
	}()

	// The serving runtime always allows dynamic turnover and never
	// attaches a cost profiler (profiler state is not checkpointed, and
	// recovery must be byte-identical).
	cfg := parsed.SystemConfig(0)
	cfg.AllowDynamic = true
	cfg.IncrementalRescore = opts.Rescore
	if batch || opts.TraceOut != "" || opts.MetricsOut != "" {
		s.rec = obs.NewRecorder()
		cfg.Obs = s.rec
	}

	ckEpoch := 0
	if image == "" {
		// A cold start truncates any previous run's artifacts and streams
		// from the system's first event on.
		if opts.TraceOut != "" {
			if s.traceF, err = os.Create(opts.TraceOut); err != nil {
				return nil, err
			}
			s.ts = obs.NewTraceStream(s.traceF)
		}
		if opts.MetricsOut != "" {
			if s.metricsF, err = os.Create(opts.MetricsOut); err != nil {
				return nil, err
			}
			s.cs = obs.NewCSVStream(s.metricsF)
		}
		if s.rec != nil {
			s.rec.StreamTo(s.ts, s.cs)
		}
		s.sys = system.New(cfg)
	} else {
		if ckEpoch, err = s.restore(image, jd, cfg); err != nil {
			return nil, fmt.Errorf("serve: resume from %s: %w", image, err)
		}
		// A restore attaches the streams only now: nothing Resume emitted
		// while rebuilding admissions may reach the resumed artifacts.
		if s.rec != nil {
			s.rec.StreamTo(s.ts, s.cs)
		}
	}

	if parsed.Arrivals != nil {
		s.plan = parsed.Arrivals.Plan(s.target)
		for s.planIdx < len(s.plan) && s.plan[s.planIdx].Epoch < ckEpoch {
			s.planIdx++
		}
	}
	if jd != nil {
		// The journal replays from the restored boundary on; batches
		// before it are already in the checkpoint's state.
		for _, b := range jd.Batches {
			if b.Epoch >= ckEpoch {
				s.replay[b.Epoch] = b.Cmds
			}
		}
		s.journaledThrough = jd.LastEpoch()
	}

	switch {
	case batch || opts.Journal == "":
	case jd == nil:
		s.journal, err = CreateJournal(opts.Journal, Header{
			Scenario: opts.Scenario,
			Rescore:  opts.Rescore,
		})
	default:
		s.journal, err = openJournalAppend(opts.Journal, jd.CleanSize)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// restore loads one rolling checkpoint into s and returns its epoch.
// Each artifact the checkpoint was streaming is reopened, truncated to
// the recorded offset (dropping any tail written after the checkpoint)
// and continued from there. The system resumes against a config whose
// app list is the scenario's own followed by the journal's
// pre-checkpoint admissions in execution order (system.Resume rebuilds
// the apps still running and restores the stopped ones' summaries);
// their scheduled departures are re-derived.
func (s *Session) restore(image string, jd *JournalData, cfg system.Config) (int, error) {
	f, err := os.Open(image)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := checkpoint.NewReader(f)
	if err != nil {
		return 0, err
	}
	d, err := r.Section("serve", 1)
	if err != nil {
		return 0, err
	}
	ckEpoch := d.Int()

	if d.Bool() {
		if s.opts.TraceOut == "" {
			return 0, fmt.Errorf("checkpoint streams a trace; -trace-out required to recover it")
		}
		if s.traceF, err = os.OpenFile(s.opts.TraceOut, os.O_WRONLY, 0o644); err != nil {
			return 0, err
		}
		if s.ts, err = obs.ResumeTraceStream(s.traceF, d); err != nil {
			return 0, err
		}
		if err := truncateTo(s.traceF, s.ts.Tell()); err != nil {
			return 0, err
		}
	} else if s.opts.TraceOut != "" {
		return 0, fmt.Errorf("checkpoint has no trace stream; a recovered run cannot start one mid-flight")
	}
	if d.Bool() {
		if s.opts.MetricsOut == "" {
			return 0, fmt.Errorf("checkpoint streams metrics; -metrics-out required to recover them")
		}
		if s.metricsF, err = os.OpenFile(s.opts.MetricsOut, os.O_WRONLY, 0o644); err != nil {
			return 0, err
		}
		if s.cs, err = obs.ResumeCSVStream(s.metricsF, d); err != nil {
			return 0, err
		}
		if err := truncateTo(s.metricsF, s.cs.Tell()); err != nil {
			return 0, err
		}
	} else if s.opts.MetricsOut != "" {
		return 0, fmt.Errorf("checkpoint has no metrics stream; a recovered run cannot start one mid-flight")
	}
	if err := d.Err(); err != nil {
		return 0, err
	}

	cfg.Apps = append([]workload.AppConfig(nil), cfg.Apps...)
	for _, b := range jd.Batches {
		if b.Epoch >= ckEpoch {
			break
		}
		for _, c := range b.Cmds {
			if c.Op != "admit" {
				continue
			}
			ac, err := resolveCmdApp(c, s.parsed.Scale, b.Epoch)
			if err != nil {
				return 0, fmt.Errorf("journaled admit at epoch %d: %w", b.Epoch, err)
			}
			cfg.Apps = append(cfg.Apps, ac)
			if c.Depart >= ckEpoch {
				s.departures = append(s.departures, departure{epoch: c.Depart, name: ac.Name})
			}
		}
	}

	sb, err := r.Section("sysblob", 1)
	if err != nil {
		return 0, err
	}
	blob := sb.Bytes64()
	if err := sb.Err(); err != nil {
		return 0, err
	}
	if s.sys, err = system.Resume(bytes.NewReader(blob), cfg); err != nil {
		return 0, err
	}
	if s.sys.Epoch() != ckEpoch {
		return 0, fmt.Errorf("restored system at epoch %d, checkpoint says %d", s.sys.Epoch(), ckEpoch)
	}
	return ckEpoch, nil
}

// truncateTo cuts f to n bytes and positions the write offset there.
func truncateTo(f *os.File, n int64) error {
	if err := f.Truncate(n); err != nil {
		return err
	}
	_, err := f.Seek(n, io.SeekStart)
	return err
}

// resolveCmdApp turns an admit command back into a runnable config: the
// spec resolved exactly like a scenario app, the instance name stamped,
// and StartAt set to the boundary's simulated time so the next RunEpoch
// admits it.
func resolveCmdApp(c Cmd, scale, boundary int) (workload.AppConfig, error) {
	if c.App == nil {
		return workload.AppConfig{}, fmt.Errorf("admit without an app spec")
	}
	ac, err := scenario.ResolveApp(*c.App, scale)
	if err != nil {
		return workload.AppConfig{}, err
	}
	if c.Name != "" {
		ac.Name = c.Name
	}
	ac.StartAt = sim.Time(boundary) * sim.Time(sim.Second)
	return ac, nil
}

// Enqueue queues one live command for the next epoch boundary. Shape
// errors are rejected here (and surface as API 4xx); state-dependent
// failures (unknown app, capacity) surface at apply time in Errs.
func (s *Session) Enqueue(c Cmd) error {
	if s.finished {
		return fmt.Errorf("serve: session finished")
	}
	switch c.Op {
	case "admit":
		if _, err := resolveCmdApp(c, s.parsed.Scale, 0); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
		if c.Depart < 0 {
			return fmt.Errorf("serve: admit depart epoch %d is negative", c.Depart)
		}
	case "stop":
		if c.Name == "" {
			return fmt.Errorf("serve: stop needs an app name")
		}
	case "intensity":
		if c.Name == "" {
			return fmt.Errorf("serve: intensity needs an app name")
		}
		if c.Milli < 1 || c.Milli > 1_000_000 {
			return fmt.Errorf("serve: intensity %d out of range [1, 1000000]", c.Milli)
		}
	default:
		return fmt.Errorf("serve: unknown op %q", c.Op)
	}
	c.Src = "api"
	s.pending = append(s.pending, c)
	return nil
}

// apply executes one command at the current boundary.
func (s *Session) apply(c Cmd) error {
	switch c.Op {
	case "admit":
		ac, err := resolveCmdApp(c, s.parsed.Scale, s.sys.Epoch())
		if err != nil {
			return err
		}
		if _, err := s.sys.AddApp(ac); err != nil {
			return err
		}
		if c.Depart > 0 {
			s.departures = append(s.departures, departure{epoch: c.Depart, name: ac.Name})
		}
		return nil
	case "stop":
		a := s.sys.App(c.Name)
		if a == nil {
			return fmt.Errorf("no app %q", c.Name)
		}
		return s.sys.StopApp(a)
	case "intensity":
		a := s.sys.App(c.Name)
		if a == nil {
			return fmt.Errorf("no app %q", c.Name)
		}
		return s.sys.SetIntensity(a, c.Milli)
	default:
		return fmt.Errorf("unknown op %q", c.Op)
	}
}

// applyDepartures stops every instance scheduled to depart at this
// boundary. An instance already gone (stopped early over the API, or
// never admitted) is skipped — live and replay derive the same skip
// from the same state.
func (s *Session) applyDepartures(e int) {
	for _, dep := range s.departures {
		if dep.epoch != e {
			continue
		}
		a := s.sys.App(dep.name)
		if a == nil || !a.Started() || a.Stopped() {
			continue
		}
		if err := s.sys.StopApp(a); err != nil {
			s.errs = append(s.errs, fmt.Sprintf("epoch %d: depart %s: %v", e, dep.name, err))
		}
	}
}

// Step advances the session one epoch: scheduled departures, then the
// boundary's commands (replayed from the journal, or pending API
// commands plus the arrival plan, journaled), then RunEpoch, then the
// rolling-checkpoint cadence. The returned error is fatal (journal
// divergence, artifact write failure); rejected live commands go to
// Errs instead.
func (s *Session) Step() error {
	if s.finished {
		return fmt.Errorf("serve: session finished")
	}
	e := s.sys.Epoch()
	s.applyDepartures(e)
	if e <= s.journaledThrough {
		for _, c := range s.replay[e] {
			if err := s.apply(c); err != nil {
				return fmt.Errorf("serve: replay diverged at epoch %d (%s %s): %w", e, c.Op, c.Name, err)
			}
		}
		// Skip the plan past this boundary: its successful arrivals were
		// just re-applied from the journal, and its rejected ones must
		// stay rejected.
		for s.planIdx < len(s.plan) && s.plan[s.planIdx].Epoch <= e {
			s.planIdx++
		}
	} else {
		var executed []Cmd
		run := func(c Cmd) {
			if err := s.apply(c); err != nil {
				s.errs = append(s.errs, fmt.Sprintf("epoch %d: %s %s: %v", e, c.Op, cmdTarget(c), err))
				return
			}
			executed = append(executed, c)
		}
		for _, c := range s.pending {
			run(c)
		}
		s.pending = nil
		for s.planIdx < len(s.plan) && s.plan[s.planIdx].Epoch <= e {
			a := s.plan[s.planIdx]
			s.planIdx++
			tmpl := s.opts.Scenario.Arrivals.Template
			run(Cmd{Op: "admit", App: &tmpl, Name: a.App.Name, Src: "arrival", Depart: a.Depart})
		}
		if len(executed) > 0 && s.journal != nil {
			if err := s.journal.Append(Batch{Epoch: e, Cmds: executed}); err != nil {
				return fmt.Errorf("serve: journal: %w", err)
			}
		}
	}

	s.sys.RunEpoch()
	if err := s.streamErr(); err != nil {
		return fmt.Errorf("serve: artifact stream: %w", err)
	}

	done := s.sys.Epoch()
	if s.opts.CheckpointBase != "" && s.opts.CheckpointEvery > 0 &&
		done%s.opts.CheckpointEvery == 0 && done < s.target {
		if err := s.Checkpoint(); err != nil {
			return fmt.Errorf("serve: checkpoint: %w", err)
		}
	}
	if done >= s.target {
		return s.release(true)
	}
	return nil
}

// cmdTarget names what a command acted on, for error tags.
func cmdTarget(c Cmd) string {
	if c.Name != "" {
		return c.Name
	}
	if c.App != nil {
		if c.App.Name != "" {
			return c.App.Name
		}
		return c.App.Preset
	}
	return "?"
}

// streamErr surfaces a latched artifact-stream write error.
func (s *Session) streamErr() error {
	if s.ts != nil {
		if err := s.ts.Err(); err != nil {
			return err
		}
	}
	if s.cs != nil {
		if err := s.cs.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint writes one rolling full-state image at the current epoch
// boundary and prunes the family to the retention count. The image
// carries the stream layout state and the complete system checkpoint,
// so Recover continues byte-identically.
func (s *Session) Checkpoint() error {
	if s.opts.CheckpointBase == "" {
		return fmt.Errorf("serve: no checkpoint base configured")
	}
	// Flush first so the artifact files hold exactly Tell() bytes — the
	// offsets recovery truncates to.
	if s.ts != nil {
		if err := s.ts.Flush(); err != nil {
			return err
		}
	}
	if s.cs != nil {
		if err := s.cs.Flush(); err != nil {
			return err
		}
	}
	w := checkpoint.NewWriter()
	enc := w.Section("serve", 1)
	enc.Int(s.sys.Epoch())
	enc.Bool(s.ts != nil)
	if s.ts != nil {
		s.ts.Snapshot(enc)
	}
	enc.Bool(s.cs != nil)
	if s.cs != nil {
		s.cs.Snapshot(enc)
	}
	var blob bytes.Buffer
	if err := s.sys.Checkpoint(&blob); err != nil {
		return err
	}
	w.Section("sysblob", 1).Bytes64(blob.Bytes())
	if _, err := checkpoint.WriteRolling(w, s.opts.CheckpointBase, s.sys.Epoch()); err != nil {
		return err
	}
	_, err := checkpoint.PruneRolling(s.opts.CheckpointBase, s.opts.CheckpointRetain)
	return err
}

// Suspend releases an unfinished session resumably: streams flush and
// their files close WITHOUT the trace footer, and the journal closes
// WITHOUT the finish trailer — exactly the state a crash leaves behind,
// so Recover handles a clean shutdown and a kill identically.
func (s *Session) Suspend() error {
	if s.finished {
		return fmt.Errorf("serve: session already finished")
	}
	return s.release(false)
}

// release ends the session and closes its journal and artifact files.
// seal marks a completed run: the journal gets its finish trailer and
// the trace its footer. Without seal everything is only flushed and
// closed, which is what a kill leaves on disk. The first error wins but
// every resource is released; partially built sessions are safe.
func (s *Session) release(seal bool) error {
	s.finished = true
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if s.journal != nil {
		if seal {
			keep(s.journal.Finish(s.sys.Epoch()))
		}
		keep(s.journal.Close())
		s.journal = nil
	}
	if s.ts != nil {
		if seal {
			keep(s.ts.Close())
		} else {
			keep(s.ts.Flush())
		}
		s.ts = nil
	}
	if s.traceF != nil {
		keep(s.traceF.Close())
		s.traceF = nil
	}
	if s.cs != nil {
		keep(s.cs.Flush())
		s.cs = nil
	}
	if s.metricsF != nil {
		keep(s.metricsF.Close())
		s.metricsF = nil
	}
	return first
}

// Run advances the session to completion — the replay driver, and the
// test harness's batch mode.
func (s *Session) Run() error {
	for !s.finished {
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Epoch returns completed epochs; Target the run's epoch goal.
func (s *Session) Epoch() int  { return s.sys.Epoch() }
func (s *Session) Target() int { return s.target }

// Finished reports whether the run reached its target and sealed its
// artifacts.
func (s *Session) Finished() bool { return s.finished }

// Errs returns the epoch-tagged rejected-command log.
func (s *Session) Errs() []string { return s.errs }

// Pending returns the number of commands queued for the next boundary.
func (s *Session) Pending() int { return len(s.pending) }

// System exposes the underlying system (status, reports, tests).
func (s *Session) System() *system.System { return s.sys }

// WriteReport renders the final run report.
func (s *Session) WriteReport(w io.Writer, jsonOut bool) error {
	if jsonOut {
		return s.sys.Report().WriteJSON(w)
	}
	return s.sys.Report().WriteText(w)
}

// WriteTrace / WriteMetrics render the batch artifacts of a non-
// streaming (replay) session — byte-identical to the live stream.
func (s *Session) WriteTrace(w io.Writer) error   { return s.rec.WriteChromeTrace(w) }
func (s *Session) WriteMetrics(w io.Writer) error { return s.rec.WriteMetricsCSV(w) }
