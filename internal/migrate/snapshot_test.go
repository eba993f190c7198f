package migrate

import (
	"bytes"
	"strings"
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

// farPage lies far past pagetable.MaxVPage: a shadow accepted at it
// would grow the dense map's directory toward 2^44 blocks, an
// out-of-memory crash no recover catches.
const farPage = 1 << 62

// hostileBlobs returns, per component, a blob whose one entry names
// page p, laid out as that component's Snapshot writes it.
func hostileBlobs(p uint64) map[string][]byte {
	eng := &checkpoint.Encoder{}
	eng.U64(3) // batch sequence
	eng.Int(1)
	eng.U64(p)
	eng.U8(uint8(mem.TierSlow))
	eng.U32(7)
	eng.U64(0)
	eng.U64(0)

	async := &checkpoint.Encoder{}
	sim.NewRNG(1).Snapshot(async)
	async.Int(1)
	async.U64(p)
	async.U8(uint8(mem.TierFast))
	for range 4 {
		async.U64(0)
	}
	async.F64(0)

	retry := &checkpoint.Encoder{}
	retry.U64(2) // epoch counter
	retry.Int(1)
	retry.U64(p)
	retry.U8(uint8(mem.TierFast))
	retry.Int(1)
	retry.U64(3)
	for range 3 {
		retry.U64(0)
	}
	return map[string][]byte{"engine": eng.Bytes(), "async": async.Bytes(), "retry": retry.Bytes()}
}

// component returns the harness's engine, async migrator or retrier
// by the name hostileBlobs keys it under.
func (h *snapshotHarness) component(name string) checkpoint.Snapshotter {
	switch name {
	case "engine":
		return h.eng
	case "async":
		return h.async
	}
	return h.retr
}

// TestMigrateRestoreRejectsFarPage feeds each decoder one entry at a
// page past pagetable.MaxVPage: every one must fail with an error. The
// same blobs at a page in range restore and re-encode unchanged, so
// the rejection is the page check and not the layout.
func TestMigrateRestoreRejectsFarPage(t *testing.T) {
	for name, blob := range hostileBlobs(farPage) {
		err := newSnapshotHarness().component(name).Restore(checkpoint.NewDecoder(blob))
		if err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("%s: page %d restored with error %v, want out of range", name, uint64(farPage), err)
		}
	}
	for name, blob := range hostileBlobs(uint64(pagetable.MaxVPage)) {
		obj := newSnapshotHarness().component(name)
		d := checkpoint.NewDecoder(blob)
		if err := obj.Restore(d); err != nil || d.Close() != nil {
			t.Fatalf("%s: page MaxVPage rejected: %v", name, err)
		}
		e := &checkpoint.Encoder{}
		obj.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Errorf("%s: page MaxVPage re-encodes differently", name)
		}
	}
}

// TestShadowRestoreRejectsDisorder pins the shadow decoder to the
// ascending order Snapshot writes: a repeated or descending page is an
// error, so every accepted blob re-encodes byte for byte.
func TestShadowRestoreRejectsDisorder(t *testing.T) {
	for _, pages := range [][2]uint64{{9, 9}, {9, 4}} {
		e := &checkpoint.Encoder{}
		e.U64(0)
		e.Int(2)
		for _, vp := range pages {
			e.U64(vp)
			e.U8(uint8(mem.TierSlow))
			e.U32(uint32(vp))
		}
		e.U64(0)
		e.U64(0)
		err := newSnapshotHarness().eng.Restore(checkpoint.NewDecoder(e.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Errorf("shadows at pages %v restored with error %v", pages, err)
		}
	}
}

// FuzzMigrateRestore feeds the engine (shadow store), async migrator
// and retrier decoders arbitrary bytes, seeded with real snapshots of a
// driven stack, their truncations and the far-page blobs. Restore must
// never panic, and a blob it accepts — Restore and Close both succeed —
// must re-encode byte for byte.
func FuzzMigrateRestore(f *testing.F) {
	names := []string{"engine", "async", "retry"}
	live := newSnapshotHarness()
	for r := 0; r < 5; r++ {
		drive(live, r)
	}
	hostile := hostileBlobs(farPage)
	for k, name := range names {
		e := &checkpoint.Encoder{}
		live.component(name).Snapshot(e)
		blob := e.Bytes()
		f.Add(uint8(k), blob)
		for cut := 0; cut < len(blob); cut += 23 {
			f.Add(uint8(k), blob[:cut])
		}
		f.Add(uint8(k), hostile[name])
	}
	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		obj := newSnapshotHarness().component(names[int(kind)%len(names)])
		d := checkpoint.NewDecoder(blob)
		if obj.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		obj.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
	})
}
