package system

import (
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// churnPolicy is a minimal migrating policy: each epoch it demotes a
// fixed window of each app's pages and promotes the previous window
// back, keeping the engines busy so migration-path faults have
// opportunities to fire.
type churnPolicy struct{ flip bool }

func (p *churnPolicy) Name() string                 { return "churn" }
func (p *churnPolicy) Mechanisms() Mechanisms       { return Mechanisms{} }
func (p *churnPolicy) AppStarted(s *System, a *App) {}
func (p *churnPolicy) EndEpoch(sys *System) {
	p.flip = !p.flip
	for _, a := range sys.StartedApps() {
		var moves []migrate.Move
		for vp := pagetable.VPage(0); vp < 32; vp++ {
			to := mem.TierSlow
			if (vp%2 == 0) == p.flip {
				to = mem.TierFast
			}
			moves = append(moves, migrate.Move{VP: vp, To: to})
		}
		res := a.Engine.MigrateSync(moves)
		a.ChargeStall(res.Cycles())
	}
}

// chaosRun executes a small two-app scenario under plan and returns a
// deterministic digest of observable state.
type chaosDigest struct {
	ops   [2]float64
	fast  [2]int
	fthr  [2]float64
	cfi   float64
	epoch int
}

func chaosRun(t *testing.T, plan *fault.Plan, rec *obs.Recorder) (*System, chaosDigest) {
	t.Helper()
	var sink obs.Sink
	if rec != nil {
		sink = rec
	}
	sys := New(Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("a", workload.LC, 400, 0),
			tinyApp("b", workload.BE, 400, 0),
		},
		Policy:      &churnPolicy{},
		EpochLength: 10 * sim.Millisecond,
		Seed:        7,
		Faults:      plan,
		Obs:         sink,
	})
	for i := 0; i < 20; i++ {
		sys.RunEpoch()
	}
	var d chaosDigest
	for i, name := range []string{"a", "b"} {
		app := sys.App(name)
		d.ops[i] = app.TotalOps()
		d.fast[i] = app.FastPages()
		d.fthr[i] = app.FTHR()
	}
	d.cfi = sys.CFI().Index()
	d.epoch = sys.Epoch()
	return sys, d
}

// TestZeroFaultIdentity is the subsystem's cornerstone guarantee: a nil
// plan, an empty plan, and a plan whose rules can never fire must all
// produce exactly the state a pre-fault build produced. Any stray
// multiplication, RNG draw, or extra allocation in the hooks shows up
// here.
func TestZeroFaultIdentity(t *testing.T) {
	_, base := chaosRun(t, nil, nil)
	_, empty := chaosRun(t, &fault.Plan{}, nil)
	_, zeroRate := chaosRun(t, &fault.Plan{Rules: []fault.Rule{
		{Kind: fault.MigrationFail, Rate: 0},
		{Kind: fault.LatencySpike, Rate: 0},
	}}, nil)
	if empty != base {
		t.Errorf("empty plan diverged from nil plan:\n%+v\n%+v", empty, base)
	}
	if zeroRate != base {
		t.Errorf("zero-rate plan diverged from nil plan:\n%+v\n%+v", zeroRate, base)
	}
}

// TestFaultedRunDeterminism replays a heavily faulted scenario and
// demands identical state and identical fault schedules.
func TestFaultedRunDeterminism(t *testing.T) {
	plan := fault.PlanAtRate(0.1)
	sys1, d1 := chaosRun(t, plan, nil)
	sys2, d2 := chaosRun(t, plan, nil)
	if d1 != d2 {
		t.Fatalf("faulted replay diverged:\n%+v\n%+v", d1, d2)
	}
	c1, c2 := sys1.FaultInjector().Counts(), sys2.FaultInjector().Counts()
	if c1 != c2 {
		t.Fatalf("fault counts diverged: %v vs %v", c1, c2)
	}
	total := uint64(0)
	for _, n := range c1 {
		total += n
	}
	if total == 0 {
		t.Fatal("rate-0.1 plan injected nothing in 20 epochs")
	}
}

// TestFaultedRunMachinery checks the resilience path actually engages:
// faults are injected and visible as events, busy migrations flow into
// the retrier, and every app's sample-fault stream reports its
// confidence.
func TestFaultedRunMachinery(t *testing.T) {
	rec := obs.NewRecorder()
	sys, _ := chaosRun(t, fault.PlanAtRate(0.2), rec)
	events := map[obs.EventType]int{}
	for _, e := range rec.Events() {
		events[e.Type]++
	}

	if events[obs.EvFaultInject] == 0 {
		t.Error("no fault.inject events recorded")
	}
	counts := sys.FaultInjector().Counts()
	if counts[fault.MigrationFail] == 0 {
		t.Error("no migration failures at rate 0.2")
	}
	var retried, pending uint64
	for _, name := range []string{"a", "b"} {
		app := sys.App(name)
		if app.Retry == nil {
			t.Fatalf("app %s has no retrier on a faulted run", name)
		}
		if _, ok := app.ProfileConfidence(); !ok {
			t.Errorf("app %s reports no profile confidence on a faulted run", name)
		}
		retried += app.Retry.Stats().Retried
		pending += uint64(app.Retry.Pending())
	}
	if retried+pending == 0 {
		t.Error("no busy pages reached the retriers")
	}
	if retried > 0 && events[obs.EvMigrateRetry] == 0 {
		t.Error("retries ran but no migrate.retry events recorded")
	}
}

// TestFaultFreeRunHasNoChaosState proves the machinery is absent, not
// just quiet, without a plan.
func TestFaultFreeRunHasNoChaosState(t *testing.T) {
	sys, _ := chaosRun(t, nil, nil)
	if sys.FaultInjector() != nil {
		t.Error("injector exists without a plan")
	}
	for _, name := range []string{"a", "b"} {
		app := sys.App(name)
		if app.Retry != nil {
			t.Errorf("app %s has a retrier without a plan", name)
		}
		if app.sampleFaults != nil {
			t.Errorf("app %s has a sample-fault stream without a plan", name)
		}
		if app.ProfileDegraded() {
			t.Errorf("app %s profile degraded without faults", name)
		}
		if app.TLBStats().DelayedAcks != 0 {
			t.Errorf("app %s has delayed acks without faults", name)
		}
	}
	if len(sys.pressure) != 0 {
		t.Error("pressure frames held without faults")
	}
}

// recordCounter counts the samples that reach the profiler it wraps.
type recordCounter struct {
	profile.Profiler
	n *int
}

func (r recordCounter) Record(a profile.Access) float64 {
	*r.n++
	return r.Profiler.Record(a)
}

// countingPolicy is the static baseline with every app's profiler
// behind one shared recordCounter.
type countingPolicy struct {
	NullPolicy
	records int
}

func (p *countingPolicy) NewProfiler(a *App) profile.Profiler {
	return recordCounter{profile.NewHybrid(a.Table, 8, profile.DefaultDecay, 1), &p.records}
}

// TestDroppedSamplesNeverReachProfiler checks the sample-loss contract
// at the access loop: every sampled LLC miss either reaches Record or
// is counted as dropped by the app's fault stream, never both. A
// stream that drops everything starves the profiler completely, and a
// fault-free run records every sample.
func TestDroppedSamplesNeverReachProfiler(t *testing.T) {
	for _, c := range []struct {
		name string
		rate float64
	}{{"fault-free", 0}, {"drop 0.3", 0.3}, {"drop all", 1}} {
		var plan *fault.Plan
		if c.rate > 0 {
			plan = &fault.Plan{Rules: []fault.Rule{{Kind: fault.PEBSDrop, Rate: c.rate}}}
		}
		pol := &countingPolicy{}
		cfg := ckptConfig(plan)
		cfg.Policy = pol
		sys := New(cfg)
		var samples, dropped float64
		for range 8 {
			sys.RunEpoch()
			for _, a := range sys.StartedApps() {
				samples += a.epochFastSamples + a.epochSlowSamples
				if a.sampleFaults != nil {
					dropped += float64(a.sampleFaults.Dropped())
				}
			}
		}
		if samples == 0 {
			t.Fatalf("%s: no sampled LLC misses", c.name)
		}
		if float64(pol.records)+dropped != samples {
			t.Errorf("%s: %d recorded + %.0f dropped != %.0f sampled", c.name, pol.records, dropped, samples)
		}
		switch {
		case c.rate == 0 && dropped != 0:
			t.Errorf("%s: %.0f samples dropped", c.name, dropped)
		case c.rate == 1 && pol.records != 0:
			t.Errorf("%s: %d samples reached the profiler", c.name, pol.records)
		case c.rate > 0 && c.rate < 1 && (dropped == 0 || pol.records == 0):
			t.Errorf("%s: %d recorded, %.0f dropped; want both > 0", c.name, pol.records, dropped)
		}
	}
}

// TestMemPressureSeizesAndReleases pins the pressure window lifecycle:
// frames seized in a burst epoch return at the next boundary.
func TestMemPressureSeizesAndReleases(t *testing.T) {
	// The app leaves most of the fast tier free: a pressure burst
	// competes for free frames (an allocation-time contender, not an
	// evictor — see DESIGN.md §10), so there must be frames to seize.
	sys := New(Config{
		Machine:     tinyMachine(256, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 100, 0)},
		EpochLength: 10 * sim.Millisecond,
		Seed:        3,
		Faults: &fault.Plan{Rules: []fault.Rule{
			{Kind: fault.MemPressure, Rate: 0.5, Severity: 0.1},
		}},
	})
	sawHeld := false
	for i := 0; i < 30; i++ {
		sys.RunEpoch()
		if held := len(sys.pressure); held > 0 {
			sawHeld = true
			if held > 26 { // 10% of 256, ceiling slack
				t.Fatalf("burst seized %d frames, severity 0.1 of 256", held)
			}
		}
	}
	if !sawHeld {
		t.Error("no pressure burst in 30 epochs at rate 0.5")
	}
}
