package system_test

import (
	"bytes"
	"math/bits"
	"slices"
	"testing"

	"vulcan/internal/figures"
	"vulcan/internal/pagetable"
	"vulcan/internal/system"
)

// hugeSet is the THP overlay the page-table leaves replaced, kept as
// the reference they are held to: a bitmap over 2MiB groups, set for
// the whole groups of the premapped prefix and cleared, one split
// counted, when migration splits a group.
type hugeSet struct {
	words  []uint64
	count  int
	splits uint64
}

// newHugeSet marks the first rssPages of an address space as huge, in
// whole 512-page groups.
func newHugeSet(rssPages int) *hugeSet {
	n := uint64(rssPages) / pagetable.EntriesPerTable
	h := &hugeSet{words: make([]uint64, (n+63)/64), count: int(n)}
	for g := uint64(0); g < n; g++ {
		h.words[g>>6] |= 1 << (g & 63)
	}
	return h
}

// split breaks the huge mapping covering vp, reporting whether there
// was one.
func (h *hugeSet) split(vp pagetable.VPage) bool {
	g := uint64(vp) >> 9
	w := g >> 6
	if w >= uint64(len(h.words)) || h.words[w]&(1<<(g&63)) == 0 {
		return false
	}
	h.words[w] &^= 1 << (g & 63)
	h.count--
	h.splits++
	return true
}

// groups returns the intact huge groups in ascending order.
func (h *hugeSet) groups() []uint64 {
	var out []uint64
	for w, word := range h.words {
		for ; word != 0; word &= word - 1 {
			out = append(out, uint64(w)<<6|uint64(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// TestHugeLeavesMatchReference runs Fig 10's co-location at scale 8
// under Vulcan, resumed from a migration-free warm start, with the
// bitmap reference split on every page the engine takes into its
// migration path. After every epoch each app's huge leaves, their
// count and the lifetime split count must equal the reference's; at the
// end the run must checkpoint to the bytes a plain Resume's run does.
func TestHugeLeavesMatchReference(t *testing.T) {
	const scale, epochs = 8, 30
	warm := figures.WarmStart(figures.ColocationConfig{Scale: scale, Seed: 1}, 1)
	cfg := func() system.Config {
		return system.Config{
			Machine:          figures.ColocationMachine(scale),
			Apps:             figures.Table2Apps(scale, false),
			Policy:           figures.NewPolicy("vulcan"),
			Seed:             1,
			SamplesPerThread: figures.SamplesForScale(scale),
		}
	}
	refs := make(map[string]*hugeSet)
	sys, err := system.ResumeObservingMigrations(bytes.NewReader(warm), cfg(),
		func(a *system.App, vp pagetable.VPage) { refs[a.Name()].split(vp) })
	if err != nil {
		t.Fatal(err)
	}
	plain, err := system.Resume(bytes.NewReader(warm), cfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range sys.StartedApps() {
		refs[a.Name()] = newHugeSet(a.PremappedPages())
	}
	for epoch := 0; epoch <= epochs; epoch++ {
		if epoch > 0 {
			sys.RunEpoch()
			plain.RunEpoch()
		}
		rep := sys.Report()
		for _, a := range sys.StartedApps() {
			ref := refs[a.Name()]
			var got []uint64
			a.Table.EachHugeLeaf(func(li uint64) { got = append(got, li) })
			if want := ref.groups(); !slices.Equal(got, want) || a.Table.HugeLeaves() != ref.count {
				t.Fatalf("epoch %d, %s: %d huge leaves %v, reference %d %v",
					epoch, a.Name(), a.Table.HugeLeaves(), got, ref.count, want)
			}
			if s := rep.Apps[a.Index].THPSplits; s != ref.splits {
				t.Fatalf("epoch %d, %s: %d splits, reference %d", epoch, a.Name(), s, ref.splits)
			}
		}
	}
	splits := uint64(0)
	for _, ref := range refs {
		splits += ref.splits
	}
	if splits == 0 {
		t.Fatal("no huge page split in the run: the comparison is vacuous")
	}
	if audit := sys.Audit(); !audit.Ok() {
		t.Fatal(audit.Errors)
	}
	var got, want bytes.Buffer
	if err := sys.Checkpoint(&got); err != nil {
		t.Fatal(err)
	}
	if err := plain.Checkpoint(&want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the observed run diverged from a plain resume")
	}
}
