package fault

import (
	"math"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
)

func mustInjector(t *testing.T, plan *Plan, seed uint64, sink obs.Sink) *Injector {
	t.Helper()
	if err := plan.Validate(); err != nil {
		t.Fatalf("plan: %v", err)
	}
	inj := NewInjector(plan, seed, sink)
	if inj == nil {
		t.Fatal("armed plan produced nil injector")
	}
	return inj
}

func TestNilAndUnarmedInjector(t *testing.T) {
	if NewInjector(nil, 1, nil) != nil {
		t.Error("nil plan must compile to nil injector")
	}
	if NewInjector(&Plan{}, 1, nil) != nil {
		t.Error("empty plan must compile to nil injector")
	}
	// Every query on a nil injector is the identity / no-fault answer.
	var inj *Injector
	if inj.MigrationFails("a", 1, 2) {
		t.Error("nil injector fails migrations")
	}
	if got := inj.IPIDelayCycles("a", 1); got != 0 {
		t.Errorf("nil injector IPI delay = %v", got)
	}
	if got := inj.BandwidthFactor(mem.TierFast, 1); got != 1 {
		t.Errorf("nil injector bandwidth factor = %v", got)
	}
	if got := inj.LatencyFactor(mem.TierSlow, 1); got != 1 {
		t.Errorf("nil injector latency factor = %v", got)
	}
	if got := inj.PressurePages(1, 1000); got != 0 {
		t.Errorf("nil injector pressure = %v", got)
	}
	if inj.Profile("a") != nil {
		t.Error("nil injector returned profile faults")
	}
	if inj.Counts() != [NumKinds]uint64{} {
		t.Error("nil injector counts nonzero")
	}
}

// TestDrawsArePure replays every query class twice, interleaved in
// different orders, and demands identical answers: the injector must
// have no draw-order state.
func TestDrawsArePure(t *testing.T) {
	plan := PlanAtRate(0.3)
	a := mustInjector(t, plan, 42, nil)
	b := mustInjector(t, plan, 42, nil)

	type draw struct {
		fail  bool
		ipi   float64
		bw    float64
		lat   float64
		press int
	}
	sample := func(inj *Injector, vp, epoch uint64) draw {
		return draw{
			fail:  inj.MigrationFails("app0", vp, epoch),
			ipi:   inj.IPIDelayCycles("app0", epoch),
			bw:    inj.BandwidthFactor(mem.TierFast, epoch),
			lat:   inj.LatencyFactor(mem.TierSlow, epoch),
			press: inj.PressurePages(epoch, 4096),
		}
	}
	// a: forward order; b: reverse order. Same answers either way.
	const n = 200
	var fromA [n]draw
	for i := uint64(0); i < n; i++ {
		fromA[i] = sample(a, i, i/4)
	}
	for i := uint64(n); i > 0; i-- {
		got := sample(b, i-1, (i-1)/4)
		if got != fromA[i-1] {
			t.Fatalf("draw %d differs across query order: %+v vs %+v", i-1, got, fromA[i-1])
		}
	}
}

func TestSeedSensitivity(t *testing.T) {
	plan := PlanAtRate(0.1)
	countFails := func(scenarioSeed, faultSeed uint64) int {
		p := *plan
		p.Seed = faultSeed
		inj := mustInjector(t, &p, scenarioSeed, nil)
		n := 0
		for vp := uint64(0); vp < 2000; vp++ {
			if inj.MigrationFails("app0", vp, 0) {
				n++
			}
		}
		return n
	}
	base := countFails(7, 0)
	if base == 0 || base == 2000 {
		t.Fatalf("degenerate fail count %d at rate 0.1", base)
	}
	// Either seed changing must reshuffle the schedule; counts stay in
	// the same statistical ballpark but the exact count differing is
	// overwhelmingly likely for 2000 draws.
	if got := countFails(8, 0); got == base {
		t.Errorf("scenario seed ignored: %d == %d", got, base)
	}
	if got := countFails(7, 1); got == base {
		t.Errorf("fault seed ignored: %d == %d", got, base)
	}
	if got := countFails(7, 0); got != base {
		t.Errorf("replay diverged: %d != %d", got, base)
	}
}

func TestRatesAreHonored(t *testing.T) {
	for _, rate := range []float64{0.05, 0.5} {
		inj := mustInjector(t, &Plan{Rules: []Rule{{Kind: MigrationFail, Rate: rate}}}, 11, nil)
		const n = 20000
		fails := 0
		for vp := uint64(0); vp < n; vp++ {
			if inj.MigrationFails("x", vp, 3) {
				fails++
			}
		}
		got := float64(fails) / n
		if math.Abs(got-rate) > 0.02 {
			t.Errorf("rate %v: empirical %v", rate, got)
		}
		if c := inj.Counts()[MigrationFail]; int(c) != fails {
			t.Errorf("counts[MigrationFail] = %d, want %d", c, fails)
		}
	}
}

func TestScopePrecedence(t *testing.T) {
	// Wildcard fails everything; the exact-scope rule for "quiet" turns
	// its faults off and must win.
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: MigrationFail, Rate: 1},
		{Kind: MigrationFail, Scope: "quiet", Rate: 0.0000001},
	}}, 5, nil)
	if !inj.MigrationFails("loud", 1, 1) {
		t.Error("wildcard rate-1 rule did not fire for unscoped app")
	}
	fails := 0
	for vp := uint64(0); vp < 100; vp++ {
		if inj.MigrationFails("quiet", vp, 1) {
			fails++
		}
	}
	if fails != 0 {
		t.Errorf("exact scope did not shadow wildcard: %d fails", fails)
	}
}

func TestTierWindows(t *testing.T) {
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: BandwidthDegrade, Scope: "fast", Rate: 0.5, Severity: 0.4},
		{Kind: LatencySpike, Scope: "slow", Rate: 0.5, Severity: 0.5},
	}}, 9, nil)
	sawBW, sawLat := false, false
	for e := uint64(0); e < 64; e++ {
		bw := inj.BandwidthFactor(mem.TierFast, e)
		if bw < 1 {
			sawBW = true
			if math.Abs(bw-0.6) > 1e-12 {
				t.Fatalf("bandwidth factor %v, want 0.6", bw)
			}
		}
		// The slow tier has no BandwidthDegrade rule.
		if got := inj.BandwidthFactor(mem.TierSlow, e); got != 1 {
			t.Fatalf("unscoped tier degraded: %v", got)
		}
		lat := inj.LatencyFactor(mem.TierSlow, e)
		if lat > 1 {
			sawLat = true
			if math.Abs(lat-1.5) > 1e-12 {
				t.Fatalf("latency factor %v, want 1.5", lat)
			}
		}
		if got := inj.LatencyFactor(mem.TierFast, e); got != 1 {
			t.Fatalf("unscoped tier spiked: %v", got)
		}
	}
	if !sawBW || !sawLat {
		t.Errorf("no window opened in 64 epochs (bw=%v lat=%v)", sawBW, sawLat)
	}
}

func TestPressurePages(t *testing.T) {
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: MemPressure, Rate: 0.5, Severity: 0.05},
	}}, 13, nil)
	saw := false
	for e := uint64(0); e < 64; e++ {
		p := inj.PressurePages(e, 4000)
		if p != 0 {
			saw = true
			if p != 200 {
				t.Fatalf("pressure pages %d, want 200 (5%% of 4000)", p)
			}
		}
	}
	if !saw {
		t.Error("no pressure burst in 64 epochs at rate 0.5")
	}
}

// drain draws n samples from pf and returns how many were dropped.
func drain(pf *ProfileFaults, n int) int {
	dropped := 0
	for i := 0; i < n; i++ {
		if pf.DropSample() {
			dropped++
		}
	}
	return dropped
}

// advance closes empty epochs until pf's open epoch is epoch.
func advance(pf *ProfileFaults, epoch uint64) {
	for pf.epoch < epoch {
		pf.EndEpoch()
	}
}

func TestProfileFaults(t *testing.T) {
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: PEBSDrop, Scope: "a", Rate: 0.3},
	}}, 21, nil)
	if inj.Profile("other") != nil {
		t.Error("profile faults returned for app with no PEBS rules")
	}
	pf := inj.Profile("a")
	if pf == nil {
		t.Fatal("no profile faults for scoped app")
	}
	if pf.epoch != 0 || pf.Confidence() != 1 || pf.Overflowed() || pf.Dropped() != 0 {
		t.Fatalf("fresh stream at epoch %d, confidence %v, overflow %v, dropped %d; want 0, 1, false, 0",
			pf.epoch, pf.Confidence(), pf.Overflowed(), pf.Dropped())
	}
	advance(pf, 4)
	const n = 5000
	dropped := drain(pf, n)
	pf.EndEpoch()
	if pf.epoch != 5 {
		t.Errorf("EndEpoch opened epoch %d, want 5", pf.epoch)
	}
	if pf.Overflowed() {
		t.Error("overflow fired with no PEBSOverflow rule")
	}
	if int(pf.Dropped()) != dropped {
		t.Errorf("Dropped = %d, want %d", pf.Dropped(), dropped)
	}
	conf := pf.Confidence()
	want := 1 - float64(dropped)/n
	if math.Abs(conf-want) > 1e-12 {
		t.Errorf("confidence %v, want %v", conf, want)
	}
	if math.Abs(conf-0.7) > 0.03 {
		t.Errorf("confidence %v far from 0.7 at drop rate 0.3", conf)
	}

	// Replay of the same epoch is identical.
	pf2 := inj.Profile("a")
	advance(pf2, 4)
	if d2 := drain(pf2, n); d2 != dropped {
		t.Errorf("replayed epoch dropped %d, first run %d", d2, dropped)
	}

	// An empty epoch has full confidence and resets the latched loss.
	pf.EndEpoch()
	if pf.Confidence() != 1 || pf.Dropped() != 0 {
		t.Errorf("empty epoch confidence %v, dropped %d", pf.Confidence(), pf.Dropped())
	}
}

// TestSampleLossLatches checks what a closed epoch leaves behind for
// the profile-confidence check: a stream that loses every sample
// latches zero confidence and the full dropped count with no overflow
// flag, and the next epoch, empty, latches full confidence again.
func TestSampleLossLatches(t *testing.T) {
	all := mustInjector(t, &Plan{Rules: []Rule{{Kind: PEBSDrop, Rate: 1}}}, 21, nil).Profile("a")
	if got := drain(all, 10); got != 10 {
		t.Fatalf("rate-1 stream dropped %d of 10", got)
	}
	all.EndEpoch()
	if all.Confidence() != 0 || all.Dropped() != 10 {
		t.Errorf("all-lost epoch confidence %v, dropped %d; want 0, 10", all.Confidence(), all.Dropped())
	}
	if all.Overflowed() {
		t.Error("overflow flag set without a PEBSOverflow rule")
	}
	all.EndEpoch()
	if all.Confidence() != 1 || all.Dropped() != 0 || all.epoch != 2 {
		t.Errorf("empty epoch after loss: confidence %v, dropped %d, open epoch %d; want 1, 0, 2",
			all.Confidence(), all.Dropped(), all.epoch)
	}
}

func TestOverflowEpochs(t *testing.T) {
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: PEBSOverflow, Rate: 0.5, Severity: 0.9},
	}}, 33, nil)
	pf := inj.Profile("a")
	sawOverflow, sawQuiet := false, false
	for e := uint64(0); e < 64 && !(sawOverflow && sawQuiet); e++ {
		drain(pf, 500)
		pf.EndEpoch()
		conf := pf.Confidence()
		if pf.Overflowed() {
			sawOverflow = true
			if conf > 0.25 {
				t.Errorf("epoch %d overflowed but confidence %v (severity 0.9)", e, conf)
			}
		} else {
			sawQuiet = true
			if conf != 1 || pf.Dropped() != 0 {
				t.Errorf("quiet epoch %d lost samples: confidence %v, dropped %d", e, conf, pf.Dropped())
			}
		}
	}
	if !sawOverflow || !sawQuiet {
		t.Errorf("epoch mix not exercised (overflow=%v quiet=%v)", sawOverflow, sawQuiet)
	}
}

// TestOverflowLatches checks that an overflow in every epoch at full
// severity loses every sample and latches the overflow flag with zero
// confidence.
func TestOverflowLatches(t *testing.T) {
	full := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: PEBSOverflow, Rate: 1, Severity: 1},
	}}, 33, nil).Profile("a")
	drain(full, 10)
	full.EndEpoch()
	if !full.Overflowed() || full.Confidence() != 0 || full.Dropped() != 10 {
		t.Errorf("full overflow: overflow %v, confidence %v, dropped %d; want true, 0, 10",
			full.Overflowed(), full.Confidence(), full.Dropped())
	}
}

// TestDropSampleZeroAlloc pins the //vulcan:hotpath contract: the
// system consults DropSample once per sampled LLC miss, so it must not
// allocate on either branch.
func TestDropSampleZeroAlloc(t *testing.T) {
	pf := mustInjector(t, PlanAtRate(0.5), 5, nil).Profile("a")
	if allocs := testing.AllocsPerRun(200, func() { pf.DropSample() }); allocs != 0 {
		t.Errorf("DropSample allocated %.0f objects/op, want 0", allocs)
	}
	if pf.kept == 0 || pf.dropped == 0 {
		t.Fatalf("kept %d, dropped %d: both branches must run", pf.kept, pf.dropped)
	}
}

// TestProfileFaultsSnapshot round-trips a stream mid-run and requires
// the restored twin to drop the same samples from then on.
func TestProfileFaultsSnapshot(t *testing.T) {
	inj := mustInjector(t, PlanAtRate(0.3), 8, nil)
	live := inj.Profile("a")
	for range 3 {
		drain(live, 400)
		live.EndEpoch()
	}
	e := &checkpoint.Encoder{}
	live.Snapshot(e)
	twin := inj.Profile("a")
	d := checkpoint.NewDecoder(e.Bytes())
	if err := twin.Restore(d); err != nil || d.Close() != nil {
		t.Fatalf("restore: %v", err)
	}
	if *twin != *live {
		t.Fatalf("restored stream %+v, want %+v", *twin, *live)
	}
	for range 3 {
		for i := 0; i < 400; i++ {
			if live.DropSample() != twin.DropSample() {
				t.Fatalf("epoch %d sample %d: streams diverged", live.epoch, i)
			}
		}
		live.EndEpoch()
		twin.EndEpoch()
	}
}

// captureSink records every event it is offered.
type captureSink struct{ events []obs.Event }

func (c *captureSink) Enabled(obs.EventType) bool { return true }
func (c *captureSink) Event(e obs.Event)          { c.events = append(c.events, e) }

func TestInjectEventsEmitted(t *testing.T) {
	sink := &captureSink{}
	inj := mustInjector(t, &Plan{Rules: []Rule{
		{Kind: MigrationFail, Rate: 1},
	}}, 3, sink)
	if !inj.MigrationFails("app0", 77, 5) {
		t.Fatal("rate-1 rule did not fire")
	}
	if len(sink.events) != 1 {
		t.Fatalf("events = %d, want 1", len(sink.events))
	}
	e := sink.events[0]
	if e.Type != obs.EvFaultInject || e.App != "app0" || e.Note != "migration-fail" {
		t.Errorf("event = %+v", e)
	}
	if e.Field("vpage") != 77 || e.Field("batch") != 5 {
		t.Errorf("coordinates missing: %+v", e.Fields)
	}
}
