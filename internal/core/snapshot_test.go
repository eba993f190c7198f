package core

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/fault"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// vulcanConfig builds the configuration for a small co-location system
// governed by the full Vulcan policy (unlike testSystem's null policy),
// so checkpoints carry the policy and profiler sections. Each call
// returns a fresh Policy instance, as Resume requires.
func vulcanConfig(plan *fault.Plan) system.Config {
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 32
	mcfg.Tiers[mem.TierFast].CapacityPages = 4096
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 16
	return system.Config{
		Machine: mcfg,
		Apps: []workload.AppConfig{
			appSpec("lc", workload.LC, 3000),
			appSpec("be", workload.BE, 6000),
		},
		Policy:           New(Options{}),
		Seed:             7,
		EpochLength:      10 * sim.Millisecond,
		SamplesPerThread: 200,
		Faults:           plan,
	}
}

func dumpSystem(t *testing.T, sys *system.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sys.Recorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// splitRunIdentity runs `total` epochs uninterrupted, then re-runs the
// same scenario with a checkpoint/resume split at `split` epochs, and
// requires byte-identical report and metrics output.
func splitRunIdentity(t *testing.T, total, split int, plan func() *fault.Plan) {
	t.Helper()
	uninterrupted := system.New(vulcanConfig(plan()))
	for i := 0; i < total; i++ {
		uninterrupted.RunEpoch()
	}
	want := dumpSystem(t, uninterrupted)

	first := system.New(vulcanConfig(plan()))
	for i := 0; i < split; i++ {
		first.RunEpoch()
	}
	var ckpt bytes.Buffer
	if err := first.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}
	resumed, err := system.Resume(bytes.NewReader(ckpt.Bytes()), vulcanConfig(plan()))
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Policy().Name() != "vulcan" {
		t.Fatalf("resumed policy = %q", resumed.Policy().Name())
	}
	for i := split; i < total; i++ {
		resumed.RunEpoch()
	}
	if got := dumpSystem(t, resumed); !bytes.Equal(got, want) {
		t.Fatal("vulcan resume-then-finish diverged from uninterrupted run")
	}
	if rep := resumed.Audit(); !rep.Ok() {
		t.Fatalf("audit failed after resume: %v", rep.Errors)
	}
}

// TestVulcanCheckpointResumeByteIdentical closes the gap the generic
// system tests leave open (they default to the null policy): a resumed
// Vulcan run must restore the QoS controller, CBFRP RNG, MLFQ wait
// memory and per-app hybrid profilers, and finish byte-identical to an
// uninterrupted run.
func TestVulcanCheckpointResumeByteIdentical(t *testing.T) {
	splitRunIdentity(t, 12, 5, func() *fault.Plan { return nil })
}

// TestVulcanFaultedCheckpointResumeByteIdentical repeats the split-run
// identity under moderate fault injection, so the policy's reaction to
// fault windows (confidence downgrades, retry interplay) is also
// covered by the resume path.
func TestVulcanFaultedCheckpointResumeByteIdentical(t *testing.T) {
	splitRunIdentity(t, 12, 7, func() *fault.Plan { return fault.PlanAtRate(0.05) })
}

// TestVulcanRestoreRejectsBadSnapshots feeds a two-workload policy
// snapshot into a Vulcan with no registered workloads, then walks
// truncations through a properly-admitted twin; every case must error,
// never panic.
func TestVulcanRestoreRejectsBadSnapshots(t *testing.T) {
	sys := system.New(vulcanConfig(nil))
	for i := 0; i < 3; i++ {
		sys.RunEpoch()
	}
	v := sys.Policy().(*Vulcan)
	e := &checkpoint.Encoder{}
	v.Snapshot(e)
	blob := e.Bytes()

	if err := New(Options{}).Restore(checkpoint.NewDecoder(blob)); err == nil {
		t.Fatal("workload-count mismatch accepted")
	}

	cold := system.New(vulcanConfig(nil))
	cold.RunEpoch() // admit the same two workloads
	target := cold.Policy().(*Vulcan)
	stride := len(blob)/16 + 1
	for cut := 0; cut < len(blob); cut += stride {
		if err := target.Restore(checkpoint.NewDecoder(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// waitEntry is one wait-memory record as snapshotWaitMemory writes it.
func waitEntry(vp uint64, heat float64) []byte {
	e := &checkpoint.Encoder{}
	e.U64(vp)
	e.F64(heat)
	return e.Bytes()
}

// badWaitBlobs returns two policy snapshots of v that Snapshot never
// writes: the first workload's wait list in descending page order, and
// a wait entry for a page past MaxVPage. Both start from a real
// snapshot of v with a planted wait list and rewrite its entries.
func badWaitBlobs(t testing.TB, v *Vulcan) (descending, farPage []byte) {
	t.Helper()
	pq := v.queues[v.qos.states[0].App]
	saved := pq.lastHeat
	defer func() { pq.lastHeat = saved }()
	snap := func(wait map[pagetable.VPage]float64) []byte {
		pq.lastHeat = wait
		e := &checkpoint.Encoder{}
		v.Snapshot(e)
		return e.Bytes()
	}
	lo, hi := waitEntry(10, 1.25), waitEntry(20, 2.75)
	pair := append(append([]byte{}, lo...), hi...)
	swapped := append(append([]byte{}, hi...), lo...)
	descending = snap(map[pagetable.VPage]float64{10: 1.25, 20: 2.75})
	farPage = snap(map[pagetable.VPage]float64{10: 1.25})
	if bytes.Count(descending, pair) != 1 || bytes.Count(farPage, lo) != 1 {
		t.Fatal("planted wait entries not found once in the snapshot")
	}
	descending = bytes.Replace(descending, pair, swapped, 1)
	farPage = bytes.Replace(farPage, lo, waitEntry(1<<62, 1.25), 1)
	return descending, farPage
}

// TestVulcanRestoreRejectsBadWaitMemory feeds a properly admitted
// Vulcan the two wait lists Snapshot never writes: entries out of page
// order, which would restore and re-encode differently, and a page past
// MaxVPage. Both must be rejected with the poison window's wording.
func TestVulcanRestoreRejectsBadWaitMemory(t *testing.T) {
	sys := system.New(vulcanConfig(nil))
	sys.RunEpoch()
	v := sys.Policy().(*Vulcan)
	descending, farPage := badWaitBlobs(t, v)
	for _, c := range []struct {
		name string
		blob []byte
		want string
	}{
		{"descending", descending, "core: wait entry for page 10 duplicated or out of order"},
		{"far page", farPage, "core: wait entry for page 4611686018427387904 out of range"},
	} {
		err := v.Restore(checkpoint.NewDecoder(c.blob))
		if err == nil || err.Error() != c.want {
			t.Errorf("%s wait list: Restore error = %v, want %q", c.name, err, c.want)
		}
	}
}

// FuzzVulcanRestore feeds the Vulcan policy decoder arbitrary bytes,
// seeded with a driven system's policy snapshot, its truncations and
// the two bad wait lists. Restore must never panic, and a blob it
// accepts — Restore and Close both succeed — must re-encode byte for
// byte. The target is admitted once and reused: Restore overwrites
// every field Snapshot writes before it can accept a blob.
func FuzzVulcanRestore(f *testing.F) {
	live := system.New(vulcanConfig(nil))
	for i := 0; i < 5; i++ {
		live.RunEpoch()
	}
	v := live.Policy().(*Vulcan)
	e := &checkpoint.Encoder{}
	v.Snapshot(e)
	blob := e.Bytes()
	f.Add(blob)
	for cut := 0; cut < len(blob); cut += 29 {
		f.Add(blob[:cut])
	}
	descending, farPage := badWaitBlobs(f, v)
	f.Add(descending)
	f.Add(farPage)

	cold := system.New(vulcanConfig(nil))
	cold.RunEpoch() // admit the same two workloads
	target := cold.Policy().(*Vulcan)
	f.Fuzz(func(t *testing.T, blob []byte) {
		d := checkpoint.NewDecoder(blob)
		if target.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		target.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
	})
}
