package system

import (
	"bytes"
	"testing"

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

// dynScript drives one deterministic add/stop schedule: the same calls
// at the same epoch boundaries, whatever system it is handed. Epochs
// are absolute (the schedule is consulted before each RunEpoch), so a
// resumed system continues mid-script.
func dynScript(t *testing.T, sys *System, from, to int) {
	t.Helper()
	for e := from; e < to; e++ {
		switch e {
		case 2:
			if _, err := sys.AddApp(tinyApp("b", workload.BE, 200, 0)); err != nil {
				t.Fatalf("add b: %v", err)
			}
		case 4:
			if err := sys.StopApp(sys.App("a")); err != nil {
				t.Fatalf("stop a: %v", err)
			}
		case 6:
			if _, err := sys.AddApp(tinyApp("c", workload.LC, 250, 0)); err != nil {
				t.Fatalf("add c: %v", err)
			}
		}
		sys.RunEpoch()
	}
}

// appsAddedBy returns the cfg.Apps list a resume at epoch `split` must
// present: every app the script has added before that boundary, in
// AddApp order.
func appsAddedBy(split int) []workload.AppConfig {
	apps := []workload.AppConfig{tinyApp("a", workload.LC, 300, 0)}
	if split > 2 {
		apps = append(apps, tinyApp("b", workload.BE, 200, 0))
	}
	if split > 6 {
		apps = append(apps, tinyApp("c", workload.LC, 250, 0))
	}
	return apps
}

func TestDynamicCheckpointResumeByteIdentical(t *testing.T) {
	const total = 10
	for _, split := range []int{3, 5, 7} {
		golden := New(dynConfig(appsAddedBy(0)...))
		dynScript(t, golden, 0, total)
		want := dump(t, golden)

		first := New(dynConfig(appsAddedBy(0)...))
		dynScript(t, first, 0, split)
		var blob bytes.Buffer
		if err := first.Checkpoint(&blob); err != nil {
			t.Fatalf("split %d: checkpoint: %v", split, err)
		}
		resumed, err := Resume(bytes.NewReader(blob.Bytes()), dynConfig(appsAddedBy(split)...))
		if err != nil {
			t.Fatalf("split %d: resume: %v", split, err)
		}
		dynScript(t, resumed, split, total)
		got := dump(t, resumed)
		if !bytes.Equal(want, got) {
			t.Fatalf("split %d: resumed dynamic run diverged (%d vs %d bytes)", split, len(want), len(got))
		}
	}
}

func TestDynamicCheckpointCorruptionNeverPanics(t *testing.T) {
	sys := New(dynConfig(appsAddedBy(0)...))
	dynScript(t, sys, 0, 5) // past the stop at epoch 4
	var blob bytes.Buffer
	if err := sys.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	raw := blob.Bytes()
	for n := 0; n < len(raw); n += 7 {
		if _, err := Resume(bytes.NewReader(raw[:n]), dynConfig(appsAddedBy(5)...)); err == nil {
			t.Fatalf("truncation at %d accepted", n)
		}
	}
	for i := 0; i < len(raw); i += 11 {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x5a
		if _, err := Resume(bytes.NewReader(mut), dynConfig(appsAddedBy(5)...)); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

// TestDynamicCheckpointReencodesIdentically resumes a checkpoint cut
// past a StopApp and requires the resumed system to checkpoint to the
// same bytes: every field restored lands where the next Snapshot reads
// it.
func TestDynamicCheckpointReencodesIdentically(t *testing.T) {
	for _, split := range []int{5, 7, 10} {
		sys := New(dynConfig(appsAddedBy(0)...))
		dynScript(t, sys, 0, split)
		var blob bytes.Buffer
		if err := sys.Checkpoint(&blob); err != nil {
			t.Fatalf("split %d: checkpoint: %v", split, err)
		}
		resumed, err := Resume(bytes.NewReader(blob.Bytes()), dynConfig(appsAddedBy(split)...))
		if err != nil {
			t.Fatalf("split %d: resume: %v", split, err)
		}
		var again bytes.Buffer
		if err := resumed.Checkpoint(&again); err != nil {
			t.Fatalf("split %d: re-checkpoint: %v", split, err)
		}
		if !bytes.Equal(blob.Bytes(), again.Bytes()) {
			t.Fatalf("split %d: re-encoded checkpoint differs (%d vs %d bytes)", split, blob.Len(), again.Len())
		}
	}
}
