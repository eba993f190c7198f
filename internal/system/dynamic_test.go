package system

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

func dynConfig(apps ...workload.AppConfig) Config {
	return Config{
		Machine:      tinyMachine(256, 4096),
		Apps:         apps,
		AllowDynamic: true,
		EpochLength:  10 * sim.Millisecond,
		Obs:          obs.NewRecorder(),
		Seed:         7,
	}
}

func TestAddAppRequiresDynamic(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 500, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	if _, err := sys.AddApp(tinyApp("b", workload.BE, 100, 0)); err == nil {
		t.Fatal("AddApp accepted on a static system")
	}
	if err := sys.StopApp(sys.App("a")); err == nil {
		t.Fatal("StopApp accepted on a static system")
	}
}

func TestAddAppLifecycle(t *testing.T) {
	sys := New(dynConfig(tinyApp("a", workload.LC, 300, 0)))
	sys.RunEpoch()
	if !sys.App("a").Started() {
		t.Fatal("seed app not admitted")
	}

	// Duplicate names are rejected; live names include stopped apps.
	if _, err := sys.AddApp(tinyApp("a", workload.BE, 100, 0)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	// Thread capacity: 8 cores, 2 committed; a 7-thread newcomer cannot fit.
	big := tinyApp("big", workload.BE, 100, 0)
	big.Threads = 7
	if _, err := sys.AddApp(big); err == nil {
		t.Fatal("over-capacity app accepted")
	}
	// Memory capacity: the tiers hold 256+4096 pages; a larger app could
	// never be mapped.
	if _, err := sys.AddApp(tinyApp("huge", workload.BE, 256+4096+1, 0)); err == nil {
		t.Fatal("app larger than the machine accepted")
	}
	// A malformed config is an error, not a panic.
	bad := tinyApp("bad", workload.BE, 100, 0)
	bad.PremapFraction = 3
	if _, err := sys.AddApp(bad); err == nil {
		t.Fatal("malformed app accepted")
	}

	b, err := sys.AddApp(tinyApp("b", workload.BE, 200, 0))
	if err != nil {
		t.Fatalf("AddApp: %v", err)
	}
	if b.Started() {
		t.Fatal("AddApp admitted immediately; admission is RunEpoch's job")
	}
	sys.RunEpoch()
	if !b.Started() {
		t.Fatal("added app not admitted on the next epoch")
	}
	if len(sys.StartedApps()) != 2 {
		t.Fatalf("started = %d, want 2", len(sys.StartedApps()))
	}
}

func TestStopAppFreesFrames(t *testing.T) {
	sys := New(dynConfig(
		tinyApp("a", workload.LC, 300, 0),
		tinyApp("b", workload.BE, 300, 0),
	))
	for i := 0; i < 3; i++ {
		sys.RunEpoch()
	}
	a := sys.App("a")
	heldFast, heldRSS := a.FastPages(), a.RSSMapped()
	if heldRSS == 0 {
		t.Fatal("app a mapped nothing")
	}
	fastBefore := sys.Tiers().Fast().Used()
	opsBefore := a.TotalOps()

	if err := sys.StopApp(a); err != nil {
		t.Fatalf("StopApp: %v", err)
	}
	if !a.Stopped() || a.Started() {
		t.Fatal("stop flags wrong")
	}
	if err := sys.StopApp(a); err == nil {
		t.Fatal("double stop accepted")
	}
	if got := sys.Tiers().Fast().Used(); got > fastBefore-heldFast {
		t.Fatalf("fast tier used %d after stop, want <= %d", got, fastBefore-heldFast)
	}
	if a.TotalOps() != opsBefore {
		t.Fatal("stop changed the durable ops summary")
	}
	// A retired app is its summary: the runtime state is gone.
	if a.Table != nil || a.TLBs != nil || a.Threads != nil || a.Engine != nil ||
		a.Async != nil || a.Retry != nil || a.Profiler != nil {
		t.Fatal("stopped app kept runtime state")
	}
	if len(sys.StartedApps()) != 1 {
		t.Fatalf("started = %d after stop, want 1", len(sys.StartedApps()))
	}

	// The system keeps running cleanly without the departed tenant, and
	// the frame-ownership audit stays green.
	for i := 0; i < 3; i++ {
		sys.RunEpoch()
	}
	if audit := sys.Audit(); !audit.Ok() {
		t.Fatalf("audit after eviction: %v", audit.Errors)
	}
	rep := sys.Report()
	if !rep.Apps[0].Stopped {
		t.Fatal("report does not mark app a stopped")
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(text.Bytes(), []byte("(stopped)")) {
		t.Fatalf("text report misses stopped marker:\n%s", text.String())
	}
}

// dynCase is one deterministic add/stop schedule on one machine: app
// a (300 pages) runs from the start, b (200) is added at epoch 2, a
// stops at 4, and c (cPages) is added at 6. Epochs are absolute (the
// schedule is consulted before each RunEpoch), so a resumed system
// continues mid-script.
type dynCase struct {
	name       string
	fast, slow int
	cPages     int
}

var dynCases = []dynCase{
	{"roomy", 256, 4096, 250},
	// c fits only in the frames a's stop freed: 300+200+400 pages
	// exceed the 128+512 the machine has.
	{"reuse", 128, 512, 400},
}

func (c dynCase) script(t testing.TB, sys *System, from, to int) {
	t.Helper()
	for e := from; e < to; e++ {
		switch e {
		case 2:
			if _, err := sys.AddApp(tinyApp("b", workload.BE, 200, 0)); err != nil {
				t.Fatalf("%s: add b: %v", c.name, err)
			}
		case 4:
			if err := sys.StopApp(sys.App("a")); err != nil {
				t.Fatalf("%s: stop a: %v", c.name, err)
			}
		case 6:
			if _, err := sys.AddApp(tinyApp("c", workload.LC, c.cPages, 0)); err != nil {
				t.Fatalf("%s: add c: %v", c.name, err)
			}
		}
		sys.RunEpoch()
	}
}

// config returns the Config a run (split 0) or a resume at epoch split
// must present: every app the script has added before that boundary,
// in AddApp order.
func (c dynCase) config(split int) Config {
	apps := []workload.AppConfig{tinyApp("a", workload.LC, 300, 0)}
	if split > 2 {
		apps = append(apps, tinyApp("b", workload.BE, 200, 0))
	}
	if split > 6 {
		apps = append(apps, tinyApp("c", workload.LC, c.cPages, 0))
	}
	cfg := dynConfig(apps...)
	cfg.Machine = tinyMachine(c.fast, c.slow)
	return cfg
}

// TestDynamicCheckpointResumeByteIdentical resumes each schedule before
// the stop, after it, and after the later admission, and requires the
// resumed run's output to equal the uninterrupted run's.
func TestDynamicCheckpointResumeByteIdentical(t *testing.T) {
	const total = 10
	for _, c := range dynCases {
		golden := New(c.config(0))
		c.script(t, golden, 0, total)
		want := dump(t, golden)
		for _, split := range []int{3, 5, 7} {
			first := New(c.config(0))
			c.script(t, first, 0, split)
			var blob bytes.Buffer
			if err := first.Checkpoint(&blob); err != nil {
				t.Fatalf("%s split %d: checkpoint: %v", c.name, split, err)
			}
			resumed, err := Resume(bytes.NewReader(blob.Bytes()), c.config(split))
			if err != nil {
				t.Fatalf("%s split %d: resume: %v", c.name, split, err)
			}
			c.script(t, resumed, split, total)
			got := dump(t, resumed)
			if !bytes.Equal(want, got) {
				t.Fatalf("%s split %d: resumed dynamic run diverged (%d vs %d bytes)",
					c.name, split, len(want), len(got))
			}
		}
	}
}

func TestDynamicCheckpointCorruptionNeverPanics(t *testing.T) {
	c := dynCases[0]
	sys := New(c.config(0))
	c.script(t, sys, 0, 5) // past the stop at epoch 4
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()
	for n := 0; n < len(raw); n += 7 {
		if _, err := Resume(bytes.NewReader(raw[:n]), c.config(5)); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		if _, err := Resume(bytes.NewReader(mut), c.config(5)); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestDynamicCheckpointReencodesIdentically resumes checkpoints cut
// around a StopApp and requires the resumed system to checkpoint to the
// same bytes: every field restored lands where the next Snapshot reads
// it.
func TestDynamicCheckpointReencodesIdentically(t *testing.T) {
	for _, c := range dynCases {
		for _, split := range []int{3, 5, 7, 10} {
			sys := New(c.config(0))
			c.script(t, sys, 0, split)
			var blob bytes.Buffer
			if err := sys.Checkpoint(&blob); err != nil {
				t.Fatalf("%s split %d: checkpoint: %v", c.name, split, err)
			}
			resumed, err := Resume(bytes.NewReader(blob.Bytes()), c.config(split))
			if err != nil {
				t.Fatalf("%s split %d: resume: %v", c.name, split, err)
			}
			if audit := resumed.Audit(); !audit.Ok() {
				t.Fatalf("%s split %d: resumed audit: %v", c.name, split, audit.Errors)
			}
			var again bytes.Buffer
			if err := resumed.Checkpoint(&again); err != nil {
				t.Fatalf("%s split %d: re-checkpoint: %v", c.name, split, err)
			}
			if !bytes.Equal(blob.Bytes(), again.Bytes()) {
				t.Fatalf("%s split %d: re-encoded checkpoint differs (%d vs %d bytes)",
					c.name, split, blob.Len(), again.Len())
			}
		}
	}
}

// ckptSection is one section of a checkpoint blob, payload copied out.
type ckptSection struct {
	name    string
	version uint32
	payload []byte
}

// splitCheckpoint decodes blob into its sections, in blob order. It
// walks the container layout Writer.WriteTo writes — magic, format
// version, section count, then per section its name, version, payload
// and checksum — after NewReader has verified the checksums.
func splitCheckpoint(t testing.TB, blob []byte) []ckptSection {
	t.Helper()
	if _, err := checkpoint.NewReader(bytes.NewReader(blob)); err != nil {
		t.Fatal(err)
	}
	d := checkpoint.NewDecoder(blob[len(checkpoint.Magic):])
	d.U32() // format version
	var out []ckptSection
	for n := d.U32(); n > 0; n-- {
		name := d.String()
		version := d.U32()
		payload := bytes.Clone(d.Bytes64())
		d.U64() // checksum
		out = append(out, ckptSection{name, version, payload})
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	return out
}

// joinCheckpoint re-emits sections as one blob with fresh checksums,
// the named section's payload replaced by payload.
func joinCheckpoint(sections []ckptSection, name string, payload []byte) []byte {
	w := checkpoint.NewWriter()
	for _, sec := range sections {
		p := sec.payload
		if sec.name == name {
			p = payload
		}
		e := w.Section(sec.name, sec.version)
		for _, b := range p {
			e.U8(b)
		}
	}
	var out bytes.Buffer
	w.WriteTo(&out)
	return out.Bytes()
}

// withAdmitOrder rewrites a system payload's admission order.
func withAdmitOrder(t testing.TB, payload []byte, order []int) []byte {
	t.Helper()
	d := checkpoint.NewDecoder(payload)
	if err := sim.NewRNG(1).Restore(d); err != nil {
		t.Fatal(err)
	}
	d.Int() // epoch
	for i := 0; i < 3*int(mem.NumTiers); i++ {
		d.F64()
	}
	head := len(payload) - d.Remaining()
	for n := d.Int(); n > 0; n-- {
		d.Int()
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	e := &checkpoint.Encoder{}
	for _, b := range payload[:head] {
		e.U8(b)
	}
	e.Int(len(order))
	for _, idx := range order {
		e.Int(idx)
	}
	for _, b := range payload[len(payload)-d.Remaining():] {
		e.U8(b)
	}
	return e.Bytes()
}

// FuzzSystemSection: the fuzz input replaces the system section's
// payload in a real dynamic checkpoint cut past a StopApp and a later
// admission that reuses the stopped app's frames; every other section
// is re-emitted byte for byte, so the checksums stay valid. Resume
// never panics, and an accepted blob resumes to a system that passes
// Audit and re-checkpoints to the same bytes.
func FuzzSystemSection(f *testing.F) {
	c := dynCases[1]
	const split = 7 // a (index 0) stopped at 4; b and c running
	sys := New(c.config(0))
	c.script(f, sys, 0, split)
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		f.Fatal(err)
	}
	sections := splitCheckpoint(f, blob.Bytes())
	var real []byte
	for _, sec := range sections {
		if sec.name == "system" {
			real = sec.payload
		}
	}
	f.Add(real)
	for cut := 0; cut < len(real); cut += 13 {
		f.Add(real[:cut])
	}
	for _, order := range [][]int{
		{0, 1, 2}, // the stopped app, whose premap no longer fits
		{0, 1},    // the stopped app, fitting
		{2, 1},    // the running apps out of order
		{1, 99},   // out of range
		{1, 1},    // duplicate
		{1},       // a running app missing
	} {
		f.Add(withAdmitOrder(f, real, order))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		in := joinCheckpoint(sections, "system", payload)
		resumed, err := Resume(bytes.NewReader(in), c.config(split))
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
