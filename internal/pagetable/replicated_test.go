package pagetable

import (
	"reflect"
	"testing"

	"vulcan/internal/mem"
)

func TestReplicatedMapAndOwnership(t *testing.T) {
	r := NewReplicated(4)
	vp := VPage(100)
	if err := r.Map(2, vp, NewPTE(fastFrame(5), 0)); err != nil {
		t.Fatal(err)
	}
	p, ok := r.Lookup(vp)
	if !ok {
		t.Fatal("mapped page not found")
	}
	if p.Owner() != 2 {
		t.Fatalf("owner = %d, want mapping thread 2", p.Owner())
	}
	if !r.threadMapsLeaf(2, vp) {
		t.Fatal("mapping thread does not hold the leaf")
	}
	if r.threadMapsLeaf(0, vp) {
		t.Fatal("non-mapping thread holds the leaf")
	}
}

func TestReplicatedTouchSameThreadStaysPrivate(t *testing.T) {
	r := NewReplicated(4)
	vp := VPage(42)
	r.Map(1, vp, NewPTE(fastFrame(1), 0))
	res, ok := r.Touch(1, vp, true)
	if !ok {
		t.Fatal("touch of mapped page failed")
	}
	if res.BecameShared {
		t.Fatal("owner's touch made the page shared")
	}
	if res.LinkedLeaf {
		t.Fatal("owner's touch re-linked its own leaf")
	}
	if !res.PTE.Accessed() || !res.PTE.Dirty() {
		t.Fatal("touch did not set accessed/dirty")
	}
}

func TestReplicatedSecondThreadSharesPage(t *testing.T) {
	r := NewReplicated(4)
	vp := VPage(42)
	r.Map(1, vp, NewPTE(fastFrame(1), 0))
	res, ok := r.Touch(3, vp, false)
	if !ok {
		t.Fatal("touch failed")
	}
	if !res.BecameShared {
		t.Fatal("cross-thread touch did not share the page")
	}
	if !res.LinkedLeaf {
		t.Fatal("cross-thread touch did not link the leaf")
	}
	p, _ := r.Lookup(vp)
	if !p.Shared() {
		t.Fatal("PTE not marked shared")
	}
	// A third touch by yet another thread: already shared, just links.
	res, _ = r.Touch(0, vp, false)
	if res.BecameShared {
		t.Fatal("touch of already-shared page reported transition")
	}
}

func TestReplicatedTouchUnmappedFails(t *testing.T) {
	r := NewReplicated(2)
	if _, ok := r.Touch(0, VPage(9), false); ok {
		t.Fatal("touch of unmapped page succeeded")
	}
}

func TestShootdownScopePrivate(t *testing.T) {
	r := NewReplicated(8)
	vp := VPage(7)
	r.Map(5, vp, NewPTE(fastFrame(0), 0))
	r.Touch(5, vp, false)
	scope := r.AppendShootdownScope(nil, vp)
	if !reflect.DeepEqual(scope, []int{5}) {
		t.Fatalf("private scope = %v, want [5]", scope)
	}
}

func TestShootdownScopeShared(t *testing.T) {
	r := NewReplicated(8)
	vp := VPage(7)
	r.Map(1, vp, NewPTE(fastFrame(0), 0))
	r.Touch(4, vp, false)
	r.Touch(6, vp, false)
	scope := r.AppendShootdownScope(nil, vp)
	if !reflect.DeepEqual(scope, []int{1, 4, 6}) {
		t.Fatalf("shared scope = %v, want [1 4 6]", scope)
	}
}

func TestShootdownScopeLeafGranularity(t *testing.T) {
	// Thread 2 touches a *different* page in the same leaf; for a shared
	// page in that leaf it is conservatively in scope (it can reach the
	// leaf), matching the paper's per-leaf sharing.
	r := NewReplicated(4)
	r.Map(0, VPage(10), NewPTE(fastFrame(0), 0))
	r.Map(2, VPage(20), NewPTE(fastFrame(1), 0)) // same leaf (pages 0..511)
	r.Touch(1, VPage(10), false)                 // page 10 becomes shared
	scope := r.AppendShootdownScope(nil, VPage(10))
	if !reflect.DeepEqual(scope, []int{0, 1, 2}) {
		t.Fatalf("scope = %v, want [0 1 2]", scope)
	}
}

func TestShootdownScopeUnmapped(t *testing.T) {
	r := NewReplicated(2)
	if s := r.AppendShootdownScope(nil, VPage(1)); s != nil {
		t.Fatalf("scope of unmapped page = %v, want nil", s)
	}
}

func TestReplicatedUnmapVisibleToAllThreads(t *testing.T) {
	r := NewReplicated(3)
	vp := VPage(1000)
	r.Map(0, vp, NewPTE(fastFrame(9), 0))
	r.Touch(1, vp, false)
	p, ok := r.Unmap(vp)
	if !ok || p.Frame() != fastFrame(9) {
		t.Fatalf("Unmap = %v,%v", p, ok)
	}
	if _, ok := r.Touch(1, vp, false); ok {
		t.Fatal("thread 1 still sees unmapped page (leaf not shared?)")
	}
}

func TestReplicatedUpdateThroughSharedLeaf(t *testing.T) {
	r := NewReplicated(2)
	vp := VPage(55)
	r.Map(0, vp, NewPTE(fastFrame(1), 0))
	r.Touch(1, vp, false)
	nf := mem.Frame{Tier: mem.TierSlow, Index: 77}
	old, _ := r.Unmap(vp)
	if err := r.Install(0, vp, old.WithFrame(nf)); err != nil {
		t.Fatal(err)
	}
	res, ok := r.Touch(1, vp, false)
	if !ok || res.PTE.Frame() != nf {
		t.Fatal("update not visible through thread view")
	}
}

func TestReplicatedTableAccounting(t *testing.T) {
	r := NewReplicated(2)
	if r.upperTables(0) != 1 || r.upperTables(1) != 1 {
		t.Fatal("fresh threads should hold only a root")
	}
	r.Map(0, VPage(0), NewPTE(fastFrame(0), 0))
	// Thread 0 gained l3+l2: root(1)+2 = 3.
	if got := r.upperTables(0); got != 3 {
		t.Fatalf("upperTables(0) = %d, want 3", got)
	}
	if got := r.upperTables(1); got != 1 {
		t.Fatalf("upperTables(1) = %d, want 1", got)
	}
	if r.sharedLeaves() != 1 {
		t.Fatalf("sharedLeaves = %d, want 1", r.sharedLeaves())
	}
	r.Touch(1, VPage(0), false)
	if got := r.upperTables(1); got != 3 {
		t.Fatalf("upperTables(1) after touch = %d, want 3", got)
	}
	// Replication overhead: replicated structure holds strictly more
	// tables than its process-wide view of the same mapping.
	if r.TotalTables() <= r.TableCount() {
		t.Fatalf("replicated tables %d not greater than single %d",
			r.TotalTables(), r.TableCount())
	}
}

func TestReplicatedSharedLeafNotDuplicated(t *testing.T) {
	// 512 pages in one leaf mapped by one thread: still one shared leaf.
	r := NewReplicated(4)
	for vp := VPage(0); vp < 512; vp++ {
		if err := r.Map(0, vp, NewPTE(fastFrame(uint32(vp)), 0)); err != nil {
			t.Fatal(err)
		}
	}
	if r.sharedLeaves() != 1 {
		t.Fatalf("sharedLeaves = %d, want 1", r.sharedLeaves())
	}
	if r.Mapped() != 512 {
		t.Fatalf("Mapped = %d, want 512", r.Mapped())
	}
}

func TestReplicatedRange(t *testing.T) {
	r := NewReplicated(2)
	r.Map(0, VPage(3), NewPTE(fastFrame(0), 0))
	r.Map(1, VPage(600), NewPTE(fastFrame(1), 0))
	var got []VPage
	r.Range(func(vp VPage, p PTE) bool {
		got = append(got, vp)
		return true
	})
	if !reflect.DeepEqual(got, []VPage{3, 600}) {
		t.Fatalf("Range = %v", got)
	}
}

func TestReplicatedPanics(t *testing.T) {
	cases := map[string]func(){
		"zero threads": func() { NewReplicated(0) },
		"too many":     func() { NewReplicated(MaxThreads + 1) },
		"bad tid": func() {
			r := NewReplicated(2)
			r.Map(5, VPage(0), NewPTE(fastFrame(0), 0))
		},
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestThreadSet(t *testing.T) {
	var s threadSet
	for _, tid := range []int{0, 63, 64, 126} {
		s.add(tid)
	}
	if !reflect.DeepEqual(s.appendMembers(nil), []int{0, 63, 64, 126}) {
		t.Fatalf("members = %v", s.appendMembers(nil))
	}
	if s.has(1) || !s.has(64) {
		t.Fatal("membership wrong")
	}
	s.add(63) // idempotent
	if n := len(s.appendMembers(nil)); n != 4 {
		t.Fatalf("duplicate add changed the member count to %d", n)
	}
}

// TestFigure6MemoryComparison quantifies the paper's Figure 6 design
// rationale: for a multi-thread address space, full per-thread
// replication multiplies page-table memory by roughly the thread count,
// while Vulcan's shared-leaf replication adds only small per-thread
// upper levels.
func TestFigure6MemoryComparison(t *testing.T) {
	const threads = 8
	// 128 leaves worth of mappings (256MB): the regime the paper argues
	// from, where last-level tables are the bulk of page-table memory.
	const pages = 65536

	vulcanStyle := NewReplicated(threads)
	for vp := VPage(0); vp < pages; vp++ {
		pte := NewPTE(fastFrame(uint32(vp)), 0)
		if err := vulcanStyle.Map(int(vp)%threads, vp, pte); err != nil {
			t.Fatal(err)
		}
	}

	// The process-wide view holds what one shared table would.
	procTables := vulcanStyle.TableCount()
	vulcanTables := vulcanStyle.TotalTables()
	// Full replication keeps a copy of the process-wide tree per thread
	// plus a canonical one.
	fullTables := (threads + 1) * procTables

	// Vulcan's shared leaves keep the overhead well under 2x, because
	// leaves are the majority of table memory.
	if vulcanTables >= procTables*2 {
		t.Fatalf("shared-leaf replication %d tables >= 2x process-wide %d",
			vulcanTables, procTables)
	}
	if vulcanTables >= fullTables/3 {
		t.Fatalf("shared-leaf %d not clearly cheaper than full %d",
			vulcanTables, fullTables)
	}
}

// TestTouchMissDoesNotMemoizeUnlinkedLeaf: a touch that finds vp's leaf
// but no present entry links nothing, so the leaf must not become the
// thread's memo — the thread's next touch there still links it.
func TestTouchMissDoesNotMemoizeUnlinkedLeaf(t *testing.T) {
	r := NewReplicated(2)
	if err := r.Map(0, 0, NewPTE(mem.Frame{Index: 1}, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Touch(1, 1, false); ok {
		t.Fatal("touch of an unmapped page succeeded")
	}
	res, ok := r.Touch(1, 0, false)
	if !ok || !res.LinkedLeaf || !r.threadMapsLeaf(1, 0) {
		t.Fatalf("thread 1's first touch of a mapped page: %+v,%t, linked %t", res, ok, r.threadMapsLeaf(1, 0))
	}
	if res, _ := r.Touch(1, 0, true); res.LinkedLeaf {
		t.Fatal("second touch linked the leaf again")
	}
}

// TestTouchMemoAcrossRegions: the memo covers one 1 GiB region of the
// thread's tree, so a touch in another region must walk, link and
// return that region's entry, and a touch back must not link again.
func TestTouchMemoAcrossRegions(t *testing.T) {
	r := NewReplicated(2)
	near, far := VPage(5), VPage(1<<18+5) // same slot, regions 0 and 1
	for i, vp := range []VPage{near, far} {
		if err := r.Map(0, vp, NewPTE(mem.Frame{Index: uint32(i + 1)}, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for _, step := range []struct {
		vp     VPage
		frame  uint32
		linked bool
	}{{near, 1, true}, {far, 2, true}, {near, 1, false}, {far, 2, false}} {
		res, ok := r.Touch(1, step.vp, false)
		if !ok || res.PTE.Frame().Index != step.frame || res.LinkedLeaf != step.linked {
			t.Fatalf("Touch(1, %#x) = %+v,%t, want frame %d, linked %t",
				uint64(step.vp), res, ok, step.frame, step.linked)
		}
	}
}
