package pagetable

import (
	"fmt"
	"slices"
	"testing"
)

// bruteLeaves lists the table's leaves by scanning every slot of every
// allocated upper-level table, ignoring the tables' tops: the reference
// the bounded walk must reproduce.
func bruteLeaves(t *table) []VPage {
	var out []VPage
	for i4, l3 := range t.root.l3s {
		if l3 == nil {
			continue
		}
		for i3, l2 := range l3.l2s {
			if l2 == nil {
				continue
			}
			for i2, leaf := range l2.leaves {
				if leaf != nil {
					out = append(out, VPage(i4)<<27|VPage(i3)<<18|VPage(i2)<<9)
				}
			}
		}
	}
	return out
}

// walkLeaves lists the leaves leafWalk yields from position (i4, i3, i2).
func walkLeaves(t *table, i4, i3, i2 int) []VPage {
	var out []VPage
	w := leafWalk{t: t, i4: i4, i3: i3, i2: i2}
	for base, _, ok := w.next(); ok; base, _, ok = w.next() {
		out = append(out, base)
	}
	return out
}

// TestLeafWalkMatchesSlotScan maps pages into sparse tables — leaves at
// slot 0 and slot 511 of their L2 table, in several L3 tables under one
// root slot and under several root slots, mapped in descending as well
// as ascending order — and checks that the walk, bounded by each
// table's top, yields exactly the leaves a full slot scan finds, from
// the start and from every leaf's own position and the one after it.
func TestLeafWalkMatchesSlotScan(t *testing.T) {
	leaf := func(i4, i3, i2 int) VPage { return VPage(i4)<<27 | VPage(i3)<<18 | VPage(i2)<<9 }
	cases := map[string][]VPage{
		"empty":        nil,
		"slot 0":       {0},
		"slot 511":     {leaf(0, 0, 511) + 3},
		"both ends":    {leaf(0, 0, 511), leaf(0, 0, 0) + 511},
		"top shrinks":  {leaf(0, 0, 7), leaf(0, 0, 2)},
		"l3 tables":    {leaf(0, 511, 0), leaf(0, 3, 511), leaf(0, 0, 1)},
		"roots":        {leaf(511, 511, 511) + 511, leaf(5, 0, 0), leaf(0, 0, 0), leaf(2, 7, 100)},
		"one per root": {leaf(1, 2, 3), leaf(4, 5, 6), leaf(7, 8, 9), leaf(300, 0, 511), leaf(300, 511, 0)},
	}
	// A fleet-sized tenant: a few hundred pages in one leaf, plus a
	// far-off leaf mapped later.
	var fleet []VPage
	for vp := VPage(0); vp < 300; vp++ {
		fleet = append(fleet, vp)
	}
	cases["fleet tenant"] = append(fleet, leaf(0, 1, 0))
	for name, vps := range cases {
		r := NewReplicated(2)
		for i, vp := range vps {
			if err := r.Map(i%2, vp, NewPTE(fastFrame(uint32(i)), 0)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		want := bruteLeaves(r.table)
		if got := walkLeaves(r.table, 0, 0, 0); !slices.Equal(got, want) {
			t.Fatalf("%s: walk = %#x, slot scan = %#x", name, got, want)
		}
		for k, base := range want {
			i4, i3, i2, _ := splitVPage(base)
			if got := walkLeaves(r.table, i4, i3, i2); !slices.Equal(got, want[k:]) {
				t.Fatalf("%s: walk from %#x = %#x, want %#x", name, base, got, want[k:])
			}
			if got := walkLeaves(r.table, i4, i3, i2+1); !slices.Equal(got, want[k+1:]) {
				t.Fatalf("%s: walk past %#x = %#x, want %#x", name, base, got, want[k+1:])
			}
		}
		if len(vps) > 0 && r.Mapped() != len(vps) {
			t.Fatalf("%s: mapped %d of %d", name, r.Mapped(), len(vps))
		}
	}
}

// TestTableTopsBoundAllocatedSlots pins the tops themselves: after
// random mappings, every table's top is one past its highest allocated
// slot, in the process tree and in every thread's private tree.
func TestTableTopsBoundAllocatedSlots(t *testing.T) {
	s := uint64(0x9e3779b97f4a7c15)
	r := NewReplicated(3)
	for i := 0; i < 400; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		// Cluster the pages so leaves share upper-level tables.
		vp := VPage(s % (1 << 30))
		if i%3 == 0 {
			vp = VPage(s % (1 << 12))
		}
		if _, ok := r.Lookup(vp); ok {
			continue
		}
		if err := r.Map(int(s>>40)%3, vp, NewPTE(fastFrame(uint32(i)), 0)); err != nil {
			t.Fatal(err)
		}
	}
	checkTops(t, "process", r.root)
	for tid, root := range r.roots {
		checkTops(t, fmt.Sprintf("thread %d", tid), root)
	}
}

func checkTops(t *testing.T, tree string, root *tableL4) {
	t.Helper()
	top := func(n int, allocated func(i int) bool) int {
		for i := n - 1; i >= 0; i-- {
			if allocated(i) {
				return i + 1
			}
		}
		return 0
	}
	if want := top(EntriesPerTable, func(i int) bool { return root.l3s[i] != nil }); root.top != want {
		t.Fatalf("%s: root top %d, want %d", tree, root.top, want)
	}
	for _, l3 := range root.l3s {
		if l3 == nil {
			continue
		}
		if want := top(EntriesPerTable, func(i int) bool { return l3.l2s[i] != nil }); l3.top != want {
			t.Fatalf("%s: L3 top %d, want %d", tree, l3.top, want)
		}
		for _, l2 := range l3.l2s {
			if l2 == nil {
				continue
			}
			if want := top(EntriesPerTable, func(i int) bool { return l2.leaves[i] != nil }); l2.top != want {
				t.Fatalf("%s: L2 top %d, want %d", tree, l2.top, want)
			}
		}
	}
}
