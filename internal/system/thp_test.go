package system

import (
	"bytes"
	"slices"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// hugeLeafList returns the app's huge leaves in ascending order.
func hugeLeafList(a *App) []uint64 {
	var out []uint64
	a.Table.EachHugeLeaf(func(li uint64) { out = append(out, li) })
	return out
}

func TestHugeTLBTagDisjoint(t *testing.T) {
	// Huge tags must never collide with base-page numbers.
	if hugeTLBTag(0) <= pagetable.MaxVPage {
		t.Fatal("huge tag overlaps base vpage space")
	}
	if hugeTLBTag(0) == hugeTLBTag(512) {
		t.Fatal("distinct groups share a tag")
	}
	if hugeTLBTag(0) != hugeTLBTag(511) {
		t.Fatal("same group has distinct tags")
	}
}

func TestTHPEnabledByDefault(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 2000, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	// 2000 premapped pages -> 3 full groups; the partial tail group
	// stays base-mapped.
	if got := hugeLeafList(sys.App("a")); !slices.Equal(got, []uint64{0, 1, 2}) {
		t.Fatalf("huge leaves = %v, want [0 1 2]", got)
	}
}

func TestTHPDisable(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 2000, 0)},
		EpochLength: 10 * sim.Millisecond,
		DisableTHP:  true,
	})
	sys.RunEpoch()
	if n := sys.App("a").Table.HugeLeaves(); n != 0 {
		t.Fatalf("THP active despite DisableTHP: %d huge leaves", n)
	}
}

func TestTHPImprovesTLBHitRate(t *testing.T) {
	run := func(disable bool) float64 {
		sys := New(Config{
			Machine:     tinyMachine(256, 1<<15),
			Apps:        []workload.AppConfig{tinyApp("a", workload.BE, 20000, 0)},
			EpochLength: 10 * sim.Millisecond,
			DisableTHP:  disable,
			Seed:        3,
		})
		for i := 0; i < 5; i++ {
			sys.RunEpoch()
		}
		hits, misses := uint64(0), uint64(0)
		for _, tb := range sys.App("a").TLBs {
			st := tb.Stats()
			hits += st.Hits
			misses += st.Misses
		}
		return float64(hits) / float64(hits+misses)
	}
	withTHP := run(false)
	without := run(true)
	if withTHP <= without {
		t.Fatalf("THP did not improve TLB hit rate: %v vs %v", withTHP, without)
	}
}

func TestTHPSplitOnMigration(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(1024, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 2000, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	a := sys.App("a")
	groupsBefore := a.Table.HugeLeaves()

	// Demote one fast page from a huge group: its covering group must
	// split and the cost must appear in the breakdown.
	victim := pagetable.VPage(0) // premapped first-touch into fast
	if p, _ := a.Table.Lookup(victim); p.Frame().Tier != 0 {
		t.Fatal("setup: page 0 not in fast tier")
	}
	if res, _ := a.Table.Touch(0, victim, false); !res.Huge {
		t.Fatal("setup: page 0 not huge")
	}
	res := a.Engine.MigrateSync([]migrate.Move{{VP: victim, To: 1}})
	if res.Moved != 1 {
		t.Fatalf("migration failed: %+v", res)
	}
	if res.Breakdown.Split != sys.Cost().THPSplitCycles {
		t.Fatalf("split cost = %v, want %v", res.Breakdown.Split, sys.Cost().THPSplitCycles)
	}
	if a.Table.HugeLeaves() != groupsBefore-1 || a.thpSplits != 1 {
		t.Fatalf("group did not split: %d huge leaves, %d splits", a.Table.HugeLeaves(), a.thpSplits)
	}
	// Second migration in the same (now split) group: no second charge.
	res2 := a.Engine.MigrateSync([]migrate.Move{{VP: victim + 1, To: 1}})
	if res2.Moved != 1 {
		t.Fatalf("second migration failed: %+v", res2)
	}
	if res2.Breakdown.Split != 0 {
		t.Fatalf("already-split group charged again: %v", res2.Breakdown.Split)
	}
}

// TestRestoreTHPRejects: the app section's THP overlay restores onto
// the table only as the encoder writes it — huge leaves ascending, each
// mapped in full — and round-trips byte for byte.
func TestRestoreTHPRejects(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(2048, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 1200, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	a := sys.App("a")
	a.admit(sys, nil) // 1200 pages: leaves 0 and 1 huge, leaf 2 partial
	overlay := func(leaves ...uint64) []byte {
		e := &checkpoint.Encoder{}
		e.Int(len(leaves))
		for _, li := range leaves {
			e.U64(li)
		}
		e.U64(9)
		return e.Bytes()
	}
	for _, c := range []struct {
		leaves []uint64
		want   string
	}{
		{[]uint64{1, 0}, "system: huge leaf 0 after 1 in checkpoint"},
		{[]uint64{0, 0}, "system: huge leaf 0 after 0 in checkpoint"},
		{[]uint64{0, 40}, "pagetable: huge leaf 40 not fully mapped"},
		{[]uint64{2}, "pagetable: huge leaf 2 not fully mapped"},
		{[]uint64{1 << 40}, "pagetable: huge leaf 1099511627776 out of range"},
	} {
		err := a.restoreTHP(checkpoint.NewDecoder(overlay(c.leaves...)))
		if err == nil || err.Error() != c.want {
			t.Errorf("restoreTHP(%v) = %v, want %q", c.leaves, err, c.want)
		}
	}
	blob := overlay(0, 1)
	if err := a.restoreTHP(checkpoint.NewDecoder(blob)); err != nil {
		t.Fatal(err)
	}
	e := &checkpoint.Encoder{}
	e.Int(a.Table.HugeLeaves())
	a.Table.EachHugeLeaf(e.U64)
	e.U64(a.thpSplits)
	if !bytes.Equal(e.Bytes(), blob) {
		t.Fatalf("overlay re-encodes as %x, want %x", e.Bytes(), blob)
	}
}
