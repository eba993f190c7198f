package system

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/fault"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// ckptConfig builds a fresh two-app config (one staggered admission) so
// each run constructs its own closures and recorder.
func ckptConfig(faults *fault.Plan) Config {
	return Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("late", workload.BE, 300, sim.Time(25*sim.Millisecond)),
			tinyApp("early", workload.LC, 300, 0),
		},
		EpochLength: 10 * sim.Millisecond,
		Obs:         obs.NewRecorder(),
		Faults:      faults,
		Seed:        7,
	}
}

// dump renders everything the byte-identity contract covers: the run
// report, the time-series CSV, and the telemetry metrics CSV.
func dump(t *testing.T, sys *System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.Recorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if rec, ok := sys.Obs().(*obs.Recorder); ok {
		if err := rec.WriteMetricsCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func runEpochs(sys *System, n int) {
	for i := 0; i < n; i++ {
		sys.RunEpoch()
	}
}

func testResumeIdentical(t *testing.T, faults *fault.Plan, split, total int) {
	t.Helper()
	golden := New(ckptConfig(faults))
	runEpochs(golden, total)
	want := dump(t, golden)

	first := New(ckptConfig(faults))
	runEpochs(first, split)
	var blob bytes.Buffer
	if err := first.Checkpoint(&blob); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	resumed, err := Resume(bytes.NewReader(blob.Bytes()), ckptConfig(faults))
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	runEpochs(resumed, total-split)
	got := dump(t, resumed)

	if !bytes.Equal(want, got) {
		t.Fatalf("resumed run diverged from uninterrupted run:\nwant %d bytes, got %d bytes", len(want), len(got))
	}
}

func TestCheckpointResumeByteIdentical(t *testing.T) {
	// Split before and after the staggered app's admission.
	testResumeIdentical(t, nil, 1, 10)
	testResumeIdentical(t, nil, 5, 10)
}

func TestCheckpointResumeFaultedByteIdentical(t *testing.T) {
	testResumeIdentical(t, fault.PlanAtRate(0.05), 6, 12)
}

// A fault-free warm-up may branch into a faulted continuation: the
// resume must succeed (fresh fault state) and stay deterministic.
func TestResumeIntoFaultedBranchDeterministic(t *testing.T) {
	var blob bytes.Buffer
	warm := New(ckptConfig(nil))
	runEpochs(warm, 4)
	if err := warm.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	run := func() []byte {
		sys, err := Resume(bytes.NewReader(blob.Bytes()), ckptConfig(fault.PlanAtRate(0.1)))
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		runEpochs(sys, 6)
		return dump(t, sys)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("faulted branch from clean snapshot is not deterministic")
	}
}

// TestResumeFaultPlanMatrix checkpoints under each fault plan and
// resumes under each plan and under the same or another policy. The
// app's sample-fault stream restores only when both runs have one and
// the policy matches; otherwise it starts fresh. Every resume must
// succeed and replay byte for byte, and a resume under the
// checkpoint's own plan and policy must match the uninterrupted run.
func TestResumeFaultPlanMatrix(t *testing.T) {
	const split, total = 5, 10
	plans := []struct {
		name string
		plan func() *fault.Plan
	}{
		{"clean", func() *fault.Plan { return nil }},
		{"faulted", func() *fault.Plan { return fault.PlanAtRate(0.1) }},
	}
	policies := []struct {
		name   string
		policy func() Tiering
	}{
		{"same", func() Tiering { return nil }},
		{"other", func() Tiering { return &churnPolicy{} }},
	}
	for _, from := range plans {
		golden := New(ckptConfig(from.plan()))
		runEpochs(golden, total)
		want := dump(t, golden)

		first := New(ckptConfig(from.plan()))
		runEpochs(first, split)
		var blob bytes.Buffer
		if err := first.Checkpoint(&blob); err != nil {
			t.Fatalf("%s: checkpoint: %v", from.name, err)
		}
		for _, to := range plans {
			for _, pol := range policies {
				cell := from.name + "->" + to.name + "/" + pol.name
				resume := func() []byte {
					cfg := ckptConfig(to.plan())
					cfg.Policy = pol.policy()
					sys, err := Resume(bytes.NewReader(blob.Bytes()), cfg)
					if err != nil {
						t.Fatalf("%s: resume: %v", cell, err)
					}
					runEpochs(sys, total-split)
					return dump(t, sys)
				}
				got := resume()
				if !bytes.Equal(got, resume()) {
					t.Errorf("%s: two resumes of one checkpoint diverged", cell)
				}
				if from.name == to.name && pol.name == "same" && !bytes.Equal(got, want) {
					t.Errorf("%s: resumed run diverged from the uninterrupted run (%d vs %d bytes)",
						cell, len(got), len(want))
				}
			}
		}
	}
}

// TestResumeRejectsBadSampleFaults resumes a faulted checkpoint whose
// app.1.faults section is cut short at every length, or carries a
// confidence that is not a fraction; each resume must fail with an
// error. The intact section must resume.
func TestResumeRejectsBadSampleFaults(t *testing.T) {
	sys := New(ckptConfig(fault.PlanAtRate(0.1)))
	runEpochs(sys, 5)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	sections := splitCheckpoint(t, blob.Bytes())
	const name = "app.1.faults"
	var real []byte
	for _, sec := range sections {
		if sec.name == name {
			real = sec.payload
		}
	}
	if real == nil {
		t.Fatalf("faulted checkpoint has no %s section", name)
	}
	resume := func(payload []byte) error {
		_, err := Resume(bytes.NewReader(joinCheckpoint(sections, name, payload)), ckptConfig(fault.PlanAtRate(0.1)))
		return err
	}
	if err := resume(real); err != nil {
		t.Fatalf("intact %s rejected: %v", name, err)
	}
	for cut := 0; cut < len(real); cut++ {
		if resume(real[:cut]) == nil {
			t.Errorf("%s cut to %d of %d bytes accepted", name, cut, len(real))
		}
	}
	if resume(append(bytes.Clone(real), 0)) == nil {
		t.Errorf("%s with a trailing byte accepted", name)
	}
	for _, conf := range []float64{math.NaN(), -0.1, 1.5} {
		bad := bytes.Clone(real)
		binary.LittleEndian.PutUint64(bad[8:], math.Float64bits(conf))
		if resume(bad) == nil {
			t.Errorf("%s with confidence %v accepted", name, conf)
		}
	}
}

func TestResumeRejectsMismatchedConfig(t *testing.T) {
	var blob bytes.Buffer
	sys := New(ckptConfig(nil))
	runEpochs(sys, 3)
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}

	bad := ckptConfig(nil)
	bad.Seed = 8
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("seed mismatch accepted")
	}

	bad = ckptConfig(nil)
	bad.Apps = bad.Apps[:1]
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("app-count mismatch accepted")
	}

	bad = ckptConfig(nil)
	bad.Apps[0].Name = "other"
	if _, err := Resume(bytes.NewReader(blob.Bytes()), bad); err == nil {
		t.Fatal("app-name mismatch accepted")
	}
}

// countingPlacer is the static policy with a first-touch placer that
// counts its calls.
type countingPlacer struct {
	NullPolicy
	calls int
}

func (p *countingPlacer) Place(*System, *App) mem.TierID {
	p.calls++
	return mem.TierFast
}

// TestResumeNeverPlaces pins that Resume is a decode: it rebuilds the
// admitted apps without premapping them, so the placer never runs.
func TestResumeNeverPlaces(t *testing.T) {
	config := func(p *countingPlacer) Config {
		cfg := ckptConfig(nil)
		cfg.Policy = p
		return cfg
	}
	src := &countingPlacer{}
	sys := New(config(src))
	runEpochs(sys, 5) // both apps admitted
	if src.calls == 0 {
		t.Fatal("the admissions placed no page")
	}
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	dst := &countingPlacer{}
	resumed, err := Resume(bytes.NewReader(blob.Bytes()), config(dst))
	if err != nil {
		t.Fatal(err)
	}
	if dst.calls != 0 {
		t.Fatalf("Resume placed %d pages", dst.calls)
	}
	if len(resumed.StartedApps()) != 2 {
		t.Fatalf("Resume rebuilt %d apps, want 2", len(resumed.StartedApps()))
	}
}

// Corrupting or truncating any part of the blob must yield an error
// from Resume, never a panic.
func TestResumeCorruptionNeverPanics(t *testing.T) {
	var blob bytes.Buffer
	sys := New(ckptConfig(fault.PlanAtRate(0.05)))
	runEpochs(sys, 4)
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()

	// Every truncation point (stride keeps the test fast).
	for n := 0; n < len(raw); n += 7 {
		if _, err := Resume(bytes.NewReader(raw[:n]), ckptConfig(fault.PlanAtRate(0.05))); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	// Single-byte corruption at every offset (stride for speed).
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		if _, err := Resume(bytes.NewReader(mut), ckptConfig(fault.PlanAtRate(0.05))); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestCheckpointAllocatesLittle pins System.Checkpoint's allocation
// to at most twice the blob it writes, for a warmed run without
// telemetry (the shape figures.WarmStart checkpoints). The big
// snapshots reserve their exact size and WriteTo streams the sections
// to the destination, so the sections are about the only allocation;
// encoders that doubled from empty cost about six times the blob.
// A race build is skipped: it compiles out the append-of-make
// optimization slices.Grow relies on, so each reservation allocates
// twice.
func TestCheckpointAllocatesLittle(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	cfg := ckptConfig(nil)
	cfg.Obs = nil
	sys := New(cfg)
	runEpochs(sys, 40)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	err := sys.Checkpoint(io.Discard)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 2*uint64(blob.Len()) {
		t.Fatalf("checkpoint of a %d-byte blob allocated %d bytes, more than twice the blob", blob.Len(), got)
	}
}

// appSectionConfig is one running app whose premap leaves three huge
// leaves and a partial one; the churn policy migrates pages of the
// first, splitting it, so the app section carries intact huge leaves
// and a split count.
func appSectionConfig() Config {
	return Config{
		Machine:     tinyMachine(256, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 1600, 0)},
		EpochLength: 10 * sim.Millisecond,
		Policy:      &churnPolicy{},
		Seed:        7,
	}
}

// thpOverlay encodes an app section's THP overlay as the app writes it.
func thpOverlay(splits uint64, leaves ...uint64) []byte {
	e := &checkpoint.Encoder{}
	e.Bool(true)
	e.Int(len(leaves))
	for _, li := range leaves {
		e.U64(li)
	}
	e.U64(splits)
	return e.Bytes()
}

// appSection runs appSectionConfig for three epochs and returns the
// system, its checkpoint's sections and the app.0 payload among them.
func appSection(t testing.TB) (*System, []ckptSection, []byte) {
	t.Helper()
	sys := New(appSectionConfig())
	runEpochs(sys, 3)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	sections := splitCheckpoint(t, blob.Bytes())
	for _, sec := range sections {
		if sec.name == "app.0" {
			return sys, sections, sec.payload
		}
	}
	t.Fatal("no app.0 section")
	return nil, nil, nil
}

// withFrameOf rewrites an app payload's PTE record for vp to map the
// frame page src maps, the one frame then mapped twice.
func withFrameOf(t testing.TB, sys *System, payload []byte, vp, src pagetable.VPage) []byte {
	t.Helper()
	tbl := sys.App("a").Table
	p, _ := tbl.Lookup(vp)
	q, _ := tbl.Lookup(src)
	rec := binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(vp)), uint64(p))
	at := bytes.Index(payload, rec)
	if at < 0 {
		t.Fatalf("no PTE record for %#x in the payload", uint64(vp))
	}
	out := bytes.Clone(payload)
	binary.LittleEndian.PutUint64(out[at+8:], uint64(p.WithFrame(q.Frame())))
	return out
}

// TestResumeRejectsTakenFrame: an app section whose page table maps a
// frame twice decodes cleanly on its own, so Resume must catch it in
// the assembled system's audit.
func TestResumeRejectsTakenFrame(t *testing.T) {
	sys, sections, real := appSection(t)
	in := joinCheckpoint(sections, "app.0", withFrameOf(t, sys, real, 100, 101))
	_, err := Resume(bytes.NewReader(in), appSectionConfig())
	if err == nil || !strings.Contains(err.Error(), "claimed twice") {
		t.Fatalf("Resume error = %v, want a taken frame", err)
	}
}

// FuzzAppSection: the fuzz input replaces a running app's app.0
// payload in a real checkpoint; every other section is re-emitted byte
// for byte, so the checksums stay valid. The seeds are the real payload,
// its truncations, a PTE mapping another page's frame, and its THP
// overlay rewritten — leaves out of order, an unmapped leaf, a partial
// leaf, a split leaf marked huge again. Resume never panics, and an
// accepted payload resumes to a system that passes Audit and
// checkpoints back to the same bytes.
func FuzzAppSection(f *testing.F) {
	sys, sections, real := appSection(f)
	f.Add(real)
	f.Add(withFrameOf(f, sys, real, 100, 101))
	for cut := 0; cut < len(real); cut += len(real)/64 + 1 {
		f.Add(real[:cut])
	}
	a := sys.App("a")
	if !slices.Equal(hugeLeafList(a), []uint64{1, 2}) || a.thpSplits != 1 {
		f.Fatalf("setup: huge leaves %v, %d splits; want [1 2], 1", hugeLeafList(a), a.thpSplits)
	}
	thp := thpOverlay(1, 1, 2)
	at := bytes.LastIndex(real, thp)
	if at < 0 {
		f.Fatal("setup: THP overlay not in the app section")
	}
	for _, leaves := range [][]uint64{{2, 1}, {1, 40}, {1, 3}, {0, 1, 2}} {
		f.Add(slices.Concat(real[:at], thpOverlay(1, leaves...), real[at+len(thp):]))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		in := joinCheckpoint(sections, "app.0", payload)
		resumed, err := Resume(bytes.NewReader(in), appSectionConfig())
		if err != nil {
			return
		}
		if audit := resumed.Audit(); !audit.Ok() {
			t.Fatalf("accepted payload resumes to a failing audit: %v", audit.Errors)
		}
		var again bytes.Buffer
		if err := resumed.Checkpoint(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), in) {
			t.Fatalf("accepted payload re-checkpoints differently:\n in  %x", payload)
		}
	})
}
