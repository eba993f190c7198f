package profile

import (
	"bytes"
	"reflect"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
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
