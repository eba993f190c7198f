package profile

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/dense"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// newProfileTable maps 256 pages so table-backed profilers have
// accessed/dirty bits to harvest.
func newProfileTable() *pagetable.Replicated {
	tbl := pagetable.NewReplicated(2)
	for vp := pagetable.VPage(0); vp < 256; vp++ {
		p := pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: uint32(vp)}, pagetable.OwnerShared)
		if err := tbl.Map(int(vp)%2, vp, p); err != nil {
			panic(err)
		}
	}
	return tbl
}

// profilerPair builds a (live, fresh) twin of each profiler kind over
// its own independent table, so restored state can be verified to
// reproduce identical future behavior.
func profilerPair(kind string) (live, fresh Profiler, liveTbl, freshTbl *pagetable.Replicated) {
	mk := func() (Profiler, *pagetable.Replicated) {
		tbl := newProfileTable()
		switch kind {
		case "pebs":
			return NewPEBSWithDecay(4, DefaultDecay, 9), tbl
		case "hybrid":
			return NewHybrid(tbl, 4, DefaultDecay, 9), tbl
		case "hintfault":
			return NewHintFault(tbl, 64, 1000), tbl
		}
		panic("unknown profiler kind " + kind)
	}
	live, liveTbl = mk()
	fresh, freshTbl = mk()
	return
}

// feed drives a deterministic access mix through the profiler and its
// table, then closes the epoch.
func feedMix(p Profiler, tbl *pagetable.Replicated, round int) EpochReport {
	for i := 0; i < 400; i++ {
		vp := pagetable.VPage((i*i + round*37) % 256)
		write := (i+round)%4 == 0
		tbl.Touch(int(vp)%2, vp, write)
		p.Record(Access{VP: vp, Thread: int(vp) % 2, Write: write, Fast: i%3 == 0})
	}
	return p.EndEpoch()
}

// TestProfilerSnapshotRoundTrip checkpoints each profiler mid-run
// (together with its page table, whose accessed/dirty bits some
// profilers consume) and requires the restored twin to report identical
// heat, write fractions and epoch behavior from then on.
func TestProfilerSnapshotRoundTrip(t *testing.T) {
	kinds := []string{"pebs", "hybrid", "hintfault"}
	for _, kind := range kinds {
		live, fresh, liveTbl, freshTbl := profilerPair(kind)
		for r := 0; r < 3; r++ {
			feedMix(live, liveTbl, r)
		}

		w := checkpoint.NewWriter()
		SnapshotProfiler(w.Section("prof", 1), live)
		liveTbl.Snapshot(w.Section("table", 1))
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for name, restore := range map[string]func(*checkpoint.Decoder) error{
			"prof":  func(d *checkpoint.Decoder) error { return RestoreProfiler(d, fresh, SnapshotVersion) },
			"table": freshTbl.Restore,
		} {
			d, err := cr.Section(name, 1)
			if err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if err := restore(d); err != nil {
				t.Fatalf("%s/%s: %v", kind, name, err)
			}
			if err := d.Close(); err != nil {
				t.Fatalf("%s/%s: unread bytes: %v", kind, name, err)
			}
		}

		if !reflect.DeepEqual(live.HeatSnapshot(), fresh.HeatSnapshot()) {
			t.Fatalf("%s: heat snapshots diverged immediately after restore", kind)
		}
		for r := 3; r < 6; r++ {
			ra := feedMix(live, liveTbl, r)
			rb := feedMix(fresh, freshTbl, r)
			if ra != rb {
				t.Fatalf("%s: round %d epoch report %+v != %+v", kind, r, ra, rb)
			}
			if !reflect.DeepEqual(live.HeatSnapshot(), fresh.HeatSnapshot()) {
				t.Fatalf("%s: round %d heat snapshots diverged", kind, r)
			}
		}
	}
}

// TestRestoreProfilerRejectsWrongKind restores a PEBS snapshot into a
// Hybrid profiler and expects a tag error, plus truncation robustness.
func TestRestoreProfilerRejectsWrongKind(t *testing.T) {
	p := NewPEBSWithDecay(4, DefaultDecay, 9)
	for i := 0; i < 200; i++ {
		p.Record(Access{VP: pagetable.VPage(i % 64), Thread: 0})
	}
	p.EndEpoch()
	e := &checkpoint.Encoder{}
	SnapshotProfiler(e, p)
	blob := e.Bytes()

	if err := RestoreProfiler(checkpoint.NewDecoder(blob), NewHybrid(newProfileTable(), 4, DefaultDecay, 9), SnapshotVersion); err == nil {
		t.Fatal("pebs snapshot restored into hybrid profiler")
	}
	for cut := 0; cut < len(blob); cut += 9 {
		if err := RestoreProfiler(checkpoint.NewDecoder(blob[:cut]), NewPEBSWithDecay(4, DefaultDecay, 9), SnapshotVersion); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// TestRestoreProfilerRejectsUnknownVersion feeds a valid blob through the
// version gate under every version but SnapshotVersion: the retired
// version-1 map layout, the retired version 2 with its per-epoch
// counters, an unassigned 0, and a future version. Each must fail with
// an error, never a panic.
func TestRestoreProfilerRejectsUnknownVersion(t *testing.T) {
	e := &checkpoint.Encoder{}
	SnapshotProfiler(e, NewPEBSWithDecay(4, DefaultDecay, 9))
	for _, version := range []uint32{0, 1, SnapshotVersion - 1, SnapshotVersion + 1} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("version %d: restore panicked: %v", version, r)
				}
			}()
			if err := RestoreProfiler(checkpoint.NewDecoder(e.Bytes()), NewPEBSWithDecay(4, DefaultDecay, 9), version); err == nil {
				t.Errorf("version %d snapshot accepted", version)
			}
		}()
	}
}

// TestRestoreProfilerRejectsNonCanonical pins two layouts the encoder
// never writes, each next to the canonical form of the same state: two
// heat runs that touch (Snapshot merges them) and a poison window out
// of ascending order. An accepted non-canonical blob would re-encode to
// different bytes.
func TestRestoreProfilerRejectsNonCanonical(t *testing.T) {
	pebs := func(secondRun pagetable.VPage) []byte {
		e := &checkpoint.Encoder{}
		e.String("pebs")
		sim.NewRNG(9).Snapshot(e)
		e.Int(2) // entries
		e.Int(2) // runs
		for _, start := range []pagetable.VPage{0, secondRun} {
			e.U64(uint64(start))
			e.Int(1)
			e.F64(1)
			e.F64(1)
			e.F64(0)
		}
		return e.Bytes()
	}
	hint := func(poisoned ...uint64) []byte {
		e := &checkpoint.Encoder{}
		e.String("hintfault")
		e.Int(0) // heat entries
		e.Int(0) // heat runs
		e.Int(len(poisoned))
		for _, vp := range poisoned {
			e.U64(vp)
		}
		e.U64(0) // cursor
		return e.Bytes()
	}
	for _, c := range []struct {
		name      string
		newTarget func() Profiler
		canonical []byte
		bad       []byte
	}{
		{"touching heat runs", func() Profiler { return NewPEBSWithDecay(4, DefaultDecay, 9) }, pebs(2), pebs(1)},
		{"unordered poison window", func() Profiler { return NewHintFault(newProfileTable(), 64, 1000) }, hint(3, 5), hint(5, 3)},
	} {
		d := checkpoint.NewDecoder(c.canonical)
		if err := RestoreProfiler(d, c.newTarget(), SnapshotVersion); err != nil || d.Close() != nil {
			t.Fatalf("%s: canonical blob rejected: %v", c.name, err)
		}
		if err := RestoreProfiler(checkpoint.NewDecoder(c.bad), c.newTarget(), SnapshotVersion); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// legacyFaultTagged encodes p in the chaos layout that once wrapped the
// profiler in a sample-fault decorator: a "faulty" tag and the stream's
// epoch, confidence, overflow flag and dropped count ahead of the
// profiler's own tag. Sample loss is now the app's fault stream, with a
// checkpoint section of its own.
func legacyFaultTagged(p Profiler) []byte {
	e := &checkpoint.Encoder{}
	e.String("faulty")
	e.U64(7)
	e.F64(0.5)
	e.Bool(false)
	e.U64(3)
	SnapshotProfiler(e, p)
	return e.Bytes()
}

// TestRestoreProfilerRejectsLegacyFaultTag: the name check must reject
// a legacy fault-tagged section and name the tag, rather than misread
// the stream's values as profiler state.
func TestRestoreProfilerRejectsLegacyFaultTag(t *testing.T) {
	blob := legacyFaultTagged(NewPEBSWithDecay(4, DefaultDecay, 9))
	err := RestoreProfiler(checkpoint.NewDecoder(blob), NewPEBSWithDecay(4, DefaultDecay, 9), SnapshotVersion)
	if err == nil || !strings.Contains(err.Error(), `"faulty"`) {
		t.Fatalf("legacy fault-wrapped section: err = %v, want one naming the \"faulty\" tag", err)
	}
}

// FuzzProfilerRestore feeds RestoreProfiler arbitrary bytes for a PEBS,
// Hybrid or HintFault target, seeded with real snapshots and with the
// same snapshots in the legacy fault-tagged layout. Restore must never panic; a blob it accepts — restore and
// Close both succeed — must re-encode byte for byte, since the decoder
// admits exactly the states the encoder writes; and the restored heat
// store's live masks must mark exactly its live cells.
func FuzzProfilerRestore(f *testing.F) {
	kinds := []string{"pebs", "hybrid", "hintfault"}
	for k, kind := range kinds {
		live, _, tbl, _ := profilerPair(kind)
		for r := 0; r < 3; r++ {
			feedMix(live, tbl, r)
		}
		// Pages in a second chunk and a second directory block give the
		// heat runs more than one chunk to land in.
		for _, vp := range []pagetable.VPage{chunkPages + 3, chunkPages + 4, chunkPages * dense.DirBlock} {
			live.Record(Access{VP: vp, Write: true, Fast: true})
		}
		e := &checkpoint.Encoder{}
		SnapshotProfiler(e, live)
		for _, blob := range [][]byte{e.Bytes(), legacyFaultTagged(live)} {
			f.Add(uint8(k), blob)
			for cut := 0; cut < len(blob); cut += 41 {
				f.Add(uint8(k), blob[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, blob []byte) {
		var p Profiler
		switch kinds[int(kind)%len(kinds)] {
		case "pebs":
			p = NewPEBSWithDecay(4, DefaultDecay, 9)
		case "hybrid":
			p = NewHybrid(newProfileTable(), 4, DefaultDecay, 9)
		default:
			p = NewHintFault(newProfileTable(), 64, 1000)
		}
		d := checkpoint.NewDecoder(blob)
		if RestoreProfiler(d, p, SnapshotVersion) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		SnapshotProfiler(e, p)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
		switch in := p.(type) {
		case *PEBS:
			checkChunks(t, in.heatStore)
		case *Hybrid:
			checkChunks(t, in.heatStore)
		case *HintFault:
			checkChunks(t, in.heatStore)
		}
	})
}
