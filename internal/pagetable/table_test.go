package pagetable

import (
	"testing"
	"testing/quick"

	"vulcan/internal/mem"
)

func fastFrame(i uint32) mem.Frame { return mem.Frame{Tier: mem.TierFast, Index: i} }

func TestTableMapLookup(t *testing.T) {
	tbl := NewReplicated(1)
	vp := VPage(0x12345)
	if err := tbl.Map(0, vp, NewPTE(fastFrame(7), 0)); err != nil {
		t.Fatal(err)
	}
	p, ok := tbl.Lookup(vp)
	if !ok || p.Frame() != fastFrame(7) {
		t.Fatalf("Lookup = %v,%v", p, ok)
	}
	if _, ok := tbl.Lookup(vp + 1); ok {
		t.Fatal("lookup of unmapped neighbour succeeded")
	}
	if tbl.Mapped() != 1 {
		t.Fatalf("Mapped = %d, want 1", tbl.Mapped())
	}
}

func TestTableDoubleMapFails(t *testing.T) {
	tbl := NewReplicated(1)
	vp := VPage(10)
	if err := tbl.Map(0, vp, NewPTE(fastFrame(1), 0)); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Map(0, vp, NewPTE(fastFrame(2), 0)); err == nil {
		t.Fatal("double map succeeded")
	}
}

func TestTableMapAbsentPTEFails(t *testing.T) {
	tbl := NewReplicated(1)
	if err := tbl.Map(0, 5, 0); err == nil {
		t.Fatal("mapping a non-present PTE succeeded")
	}
}

func TestTableUnmap(t *testing.T) {
	tbl := NewReplicated(1)
	vp := VPage(0xABCDE)
	tbl.Map(0, vp, NewPTE(fastFrame(3), 0))
	p, ok := tbl.Unmap(vp)
	if !ok || p.Frame() != fastFrame(3) {
		t.Fatalf("Unmap = %v,%v", p, ok)
	}
	if _, ok := tbl.Lookup(vp); ok {
		t.Fatal("page still mapped after unmap")
	}
	if _, ok := tbl.Unmap(vp); ok {
		t.Fatal("second unmap succeeded")
	}
	if tbl.Mapped() != 0 {
		t.Fatalf("Mapped = %d after unmap", tbl.Mapped())
	}
}

func TestTableRangeOrderAndCompleteness(t *testing.T) {
	tbl := NewReplicated(1)
	// Spread mappings across leaves and upper levels.
	vps := []VPage{0, 511, 512, 1 << 18, 1<<27 + 5, MaxVPage}
	for i, vp := range vps {
		if err := tbl.Map(0, vp, NewPTE(fastFrame(uint32(i)), 0)); err != nil {
			t.Fatal(err)
		}
	}
	var got []VPage
	tbl.Range(func(vp VPage, p PTE) bool {
		got = append(got, vp)
		return true
	})
	if len(got) != len(vps) {
		t.Fatalf("Range visited %d pages, want %d", len(got), len(vps))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatalf("Range out of order: %v", got)
		}
	}
}

func TestTableRangeEarlyStop(t *testing.T) {
	tbl := NewReplicated(1)
	for i := VPage(0); i < 10; i++ {
		tbl.Map(0, i, NewPTE(fastFrame(uint32(i)), 0))
	}
	n := 0
	tbl.Range(func(VPage, PTE) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("Range visited %d after stop, want 3", n)
	}
}

func TestTableCountGrowth(t *testing.T) {
	tbl := NewReplicated(1)
	if tbl.TableCount() != 1 {
		t.Fatalf("empty table count = %d, want 1 (root)", tbl.TableCount())
	}
	tbl.Map(0, 0, NewPTE(fastFrame(0), 0))
	// root + l3 + l2 + leaf
	if tbl.TableCount() != 4 {
		t.Fatalf("count after first map = %d, want 4", tbl.TableCount())
	}
	tbl.Map(0, 1, NewPTE(fastFrame(1), 0)) // same leaf
	if tbl.TableCount() != 4 {
		t.Fatalf("same-leaf map changed count to %d", tbl.TableCount())
	}
	tbl.Map(0, 512, NewPTE(fastFrame(2), 0)) // new leaf, same l2
	if tbl.TableCount() != 5 {
		t.Fatalf("new-leaf map count = %d, want 5", tbl.TableCount())
	}
}

func TestTableOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range vpage did not panic")
		}
	}()
	NewReplicated(1).Lookup(MaxVPage + 1)
}

func TestLeafLiveCount(t *testing.T) {
	var l Leaf
	l.SetPTE(0, NewPTE(fastFrame(0), 0))
	l.SetPTE(1, NewPTE(fastFrame(1), 0))
	if l.Live() != 2 {
		t.Fatalf("Live = %d, want 2", l.Live())
	}
	l.SetPTE(0, l.PTE(0).WithAccessed(true)) // present->present
	if l.Live() != 2 {
		t.Fatalf("Live changed on flag update: %d", l.Live())
	}
	l.SetPTE(0, 0)
	if l.Live() != 1 {
		t.Fatalf("Live = %d after clear, want 1", l.Live())
	}
}

func TestTableMapUnmapProperty(t *testing.T) {
	// Property: mapping a set of distinct vpages then unmapping all of
	// them leaves Mapped()==0 and every lookup failing.
	check := func(raw []uint32) bool {
		tbl := NewReplicated(1)
		seen := map[VPage]bool{}
		var vps []VPage
		for _, r := range raw {
			vp := VPage(r) & MaxVPage
			if seen[vp] {
				continue
			}
			seen[vp] = true
			vps = append(vps, vp)
			if err := tbl.Map(0, vp, NewPTE(fastFrame(r), 0)); err != nil {
				return false
			}
		}
		if tbl.Mapped() != len(vps) {
			return false
		}
		for _, vp := range vps {
			if _, ok := tbl.Unmap(vp); !ok {
				return false
			}
		}
		if tbl.Mapped() != 0 {
			return false
		}
		for _, vp := range vps {
			if _, ok := tbl.Lookup(vp); ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
