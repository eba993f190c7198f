package migrate

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// snapshotHarness is one engine + async migrator + retrier stack over a
// small machine, built identically every time so a restored twin can be
// driven in lockstep with the original.
type snapshotHarness struct {
	tiers *mem.Tiers
	tbl   *pagetable.Replicated
	eng   *Engine
	async *AsyncMigrator
	retr  *Retrier
}

func newSnapshotHarness() *snapshotHarness {
	h := &snapshotHarness{}
	h.tiers = mem.NewTiers([mem.NumTiers]mem.TierConfig{
		mem.TierFast: {Name: "f", CapacityPages: 64, UnloadedLatency: 70, BandwidthGBs: 205},
		mem.TierSlow: {Name: "s", CapacityPages: 256, UnloadedLatency: 162, BandwidthGBs: 25},
	})
	h.tbl = pagetable.NewReplicated(2)
	for vp := pagetable.VPage(0); vp < 128; vp++ {
		f, ok := h.tiers.Alloc(mem.TierSlow)
		if !ok {
			panic("slow tier exhausted")
		}
		if err := h.tbl.Map(0, vp, pagetable.NewPTE(f, pagetable.OwnerShared)); err != nil {
			panic(err)
		}
	}
	h.eng = NewEngine(Config{
		Cost: machine.DefaultCostModel(), Tiers: h.tiers, Table: h.tbl,
		Cpus: 4, ProcessThreads: 2, Shadowing: true,
	})
	h.async = NewAsyncMigrator(AsyncConfig{Engine: h.eng, RNG: sim.NewRNG(77)})
	h.retr = NewRetrier(h.eng)
	return h
}

// snapshotAll writes the machine state every resumed run needs: tiers,
// table, and the three migration components.
func (h *snapshotHarness) snapshotAll(t *testing.T) []byte {
	t.Helper()
	w := checkpoint.NewWriter()
	h.tiers.Snapshot(w.Section("tiers", 1))
	h.tbl.Snapshot(w.Section("table", 1))
	h.eng.Snapshot(w.Section("engine", 1))
	h.async.Snapshot(w.Section("async", 1))
	h.retr.Snapshot(w.Section("retry", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func (h *snapshotHarness) restoreAll(t *testing.T, blob []byte) {
	t.Helper()
	cr, err := checkpoint.NewReader(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []struct {
		name string
		obj  checkpoint.Snapshotter
	}{
		{"tiers", h.tiers}, {"table", h.tbl}, {"engine", h.eng},
		{"async", h.async}, {"retry", h.retr},
	} {
		d, err := cr.Section(s.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.obj.Restore(d); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: unread bytes: %v", s.name, err)
		}
	}
}

// drive promotes and demotes a deterministic page mix through both the
// sync path (feeding the retrier) and the async path.
func drive(h *snapshotHarness, round int) {
	var sync []Move
	for i := 0; i < 12; i++ {
		vp := pagetable.VPage((round*13 + i*5) % 128)
		to := mem.TierFast
		if (round+i)%3 == 0 {
			to = mem.TierSlow
		}
		if i%2 == 0 {
			sync = append(sync, Move{VP: vp, To: to})
		} else {
			h.async.EnqueueOne(Move{VP: vp, To: to})
		}
	}
	h.eng.MigrateSync(sync)
	h.async.RunEpoch(5e6, func(vp pagetable.VPage) float64 { return 0.3 })
	// Hand the retrier a transient failure by hand (without an injector
	// the engine never reports Busy) so its queue state is non-trivial.
	h.retr.NoteBusy(Move{VP: pagetable.VPage((round * 29) % 128), To: mem.TierFast})
	h.retr.RunEpoch(uint64(round))
}

// TestMigrateSnapshotRoundTrip drives a migration stack mid-flight,
// checkpoints the whole machine state, restores it into a fresh twin,
// and requires the two stacks to stay byte-identical through further
// epochs — pending queues, shadow frames, RNG and stats included.
func TestMigrateSnapshotRoundTrip(t *testing.T) {
	live := newSnapshotHarness()
	for r := 0; r < 5; r++ {
		drive(live, r)
	}
	blob := live.snapshotAll(t)

	twin := newSnapshotHarness()
	twin.restoreAll(t, blob)

	if live.async.Backlog() != twin.async.Backlog() {
		t.Fatalf("async backlog %d != %d", live.async.Backlog(), twin.async.Backlog())
	}
	if live.retr.Pending() != twin.retr.Pending() {
		t.Fatalf("retry pending %d != %d", live.retr.Pending(), twin.retr.Pending())
	}
	for r := 5; r < 10; r++ {
		drive(live, r)
		drive(twin, r)
		if live.async.Stats() != twin.async.Stats() {
			t.Fatalf("round %d: async stats %+v != %+v", r, live.async.Stats(), twin.async.Stats())
		}
		if live.retr.Stats() != twin.retr.Stats() {
			t.Fatalf("round %d: retry stats %+v != %+v", r, live.retr.Stats(), twin.retr.Stats())
		}
		if live.eng.Shadows() != twin.eng.Shadows() {
			t.Fatalf("round %d: shadow stats diverged", r)
		}
	}
	// Final placements must agree exactly.
	live.tbl.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
		q, ok := twin.tbl.Lookup(vp)
		if !ok || q != p {
			t.Fatalf("page %d: %v != %v (ok=%v)", vp, p, q, ok)
		}
		return true
	})
}

// TestMigrateRestoreRejectsCorruption truncates and bit-flips each
// component's payload; Restore must error, never panic.
func TestMigrateRestoreRejectsCorruption(t *testing.T) {
	live := newSnapshotHarness()
	for r := 0; r < 5; r++ {
		drive(live, r)
	}

	snap := func(obj checkpoint.Snapshotter) []byte {
		e := &checkpoint.Encoder{}
		obj.Snapshot(e)
		return e.Bytes()
	}
	objs := map[string]struct {
		blob  []byte
		fresh func() checkpoint.Snapshotter
	}{
		"engine": {snap(live.eng), func() checkpoint.Snapshotter { return newSnapshotHarness().eng }},
		"async":  {snap(live.async), func() checkpoint.Snapshotter { return newSnapshotHarness().async }},
		"retry":  {snap(live.retr), func() checkpoint.Snapshotter { return newSnapshotHarness().retr }},
	}
	for name, o := range objs {
		for cut := 0; cut < len(o.blob); cut += 11 {
			if err := o.fresh().Restore(checkpoint.NewDecoder(o.blob[:cut])); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
	}
}
