package pagetable

import (
	"slices"
	"strings"
	"testing"
)

// mapPages maps pages [0, n) on thread 0, each to its own fast frame.
func mapPages(t *testing.T, r *Replicated, n int) {
	t.Helper()
	for vp := VPage(0); vp < VPage(n); vp++ {
		if err := r.Map(0, vp, NewPTE(fastFrame(uint32(vp)), 0)); err != nil {
			t.Fatal(err)
		}
	}
}

// hugeList returns the table's huge leaves in ascending order.
func hugeList(r *Replicated) []uint64 {
	var out []uint64
	r.EachHugeLeaf(func(li uint64) { out = append(out, li) })
	return out
}

// touchHuge reports what Touch says of vp's huge mapping.
func touchHuge(r *Replicated, vp VPage) bool {
	res, _ := r.Touch(0, vp, false)
	return res.Huge
}

func TestSetHugeGrouping(t *testing.T) {
	r := NewReplicated(1)
	mapPages(t, r, 1536) // exactly 3 leaves
	for li := uint64(0); li < 3; li++ {
		if err := r.SetHuge(li); err != nil {
			t.Fatal(err)
		}
	}
	if r.HugeLeaves() != 3 || !slices.Equal(hugeList(r), []uint64{0, 1, 2}) {
		t.Fatalf("huge leaves = %d %v, want 3 [0 1 2]", r.HugeLeaves(), hugeList(r))
	}
	if !touchHuge(r, 0) || !touchHuge(r, 511) || !touchHuge(r, 1535) {
		t.Fatal("pages inside huge leaves not huge")
	}
	// A partial tail leaf stays base-mapped: it cannot be marked.
	r2 := NewReplicated(1)
	mapPages(t, r2, 1000) // 1 full leaf + 488 tail pages
	if err := r2.SetHuge(0); err != nil {
		t.Fatal(err)
	}
	if err := r2.SetHuge(1); err == nil {
		t.Fatal("partial tail leaf marked huge")
	}
	if r2.HugeLeaves() != 1 || touchHuge(r2, 700) {
		t.Fatalf("partial-tail huge leaves = %d, tail page huge %t", r2.HugeLeaves(), touchHuge(r2, 700))
	}
	if err := r2.CheckMasks(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitHuge(t *testing.T) {
	r := NewReplicated(1)
	mapPages(t, r, 1024)
	for li := uint64(0); li < 2; li++ {
		if err := r.SetHuge(li); err != nil {
			t.Fatal(err)
		}
	}
	if !r.SplitHuge(5) {
		t.Fatal("first split failed")
	}
	if r.SplitHuge(100) { // same leaf (0..511)
		t.Fatal("second split of the same leaf reported true")
	}
	if r.SplitHuge(5000) { // no leaf there
		t.Fatal("split of an unmapped leaf reported true")
	}
	if touchHuge(r, 5) || touchHuge(r, 100) {
		t.Fatal("leaf still huge after split")
	}
	if !touchHuge(r, 512) {
		t.Fatal("neighbouring leaf lost huge-ness")
	}
	if r.HugeLeaves() != 1 {
		t.Fatalf("huge leaves = %d after one split, want 1", r.HugeLeaves())
	}
	// A split leaf may lose pages; the audit still holds.
	r.Unmap(5)
	if err := r.CheckMasks(); err != nil {
		t.Fatal(err)
	}
}

func TestSetHugeRejects(t *testing.T) {
	r := NewReplicated(1)
	mapPages(t, r, 600)
	for _, c := range []struct {
		li   uint64
		want string
	}{
		{LeafIndex(MaxVPage) + 1, "out of range"},
		{7, "not fully mapped"}, // no leaf
		{1, "not fully mapped"}, // 88 of 512 pages
	} {
		if err := r.SetHuge(c.li); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("SetHuge(%d) = %v, want %q", c.li, err, c.want)
		}
	}
	if r.HugeLeaves() != 0 {
		t.Fatalf("rejected leaves counted: %d", r.HugeLeaves())
	}
}

// TestCheckMasksLeafState: each mutation breaks one leaf-state
// invariant CheckMasks holds, and CheckMasks names it.
func TestCheckMasksLeafState(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(r *Replicated)
		want   string
	}{
		{"partial huge leaf", func(r *Replicated) { r.Unmap(3) }, "huge leaf at 0x0 not fully present"},
		{"unlinked leaf", func(r *Replicated) {
			leaf, _ := r.leafAt(600)
			leaf.linked = threadSet{}
		}, "leaf at 0x200 linked by no thread"},
		{"leaf count", func(r *Replicated) { r.leaves++ }, "2 leaves (1 huge) counted as 3 (1 huge)"},
		{"huge count", func(r *Replicated) { r.huge-- }, "2 leaves (1 huge) counted as 2 (0 huge)"},
	} {
		r := NewReplicated(2)
		mapPages(t, r, 601)
		if err := r.SetHuge(0); err != nil {
			t.Fatal(err)
		}
		if err := r.CheckMasks(); err != nil {
			t.Fatalf("%s: before the mutation: %v", c.name, err)
		}
		c.mutate(r)
		if err := r.CheckMasks(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: CheckMasks = %v, want %q", c.name, err, c.want)
		}
	}
}
