package core

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

func TestClassifyTable1(t *testing.T) {
	private := pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: 1}, 3)
	shared := private.WithOwner(pagetable.OwnerShared)
	cases := []struct {
		pte       pagetable.PTE
		writeFrac float64
		want      PageClass
	}{
		{private, 0.0, PrivateRead},
		{private, 0.9, PrivateWrite},
		{shared, 0.0, SharedRead},
		{shared, 0.9, SharedWrite},
		{private, 0.25, PrivateRead}, // boundary: not strictly above threshold
		{private, 0.26, PrivateWrite},
	}
	for _, c := range cases {
		if got := Classify(c.pte, c.writeFrac); got != c.want {
			t.Errorf("Classify(shared=%t, wf=%v) = %v, want %v",
				c.pte.Shared(), c.writeFrac, got, c.want)
		}
	}
}

func TestTable1PriorityOrder(t *testing.T) {
	// Table 1: private-read (★★★★) > shared-read (★★★) >
	// private-write (★★) > shared-write (★).
	if !(PrivateRead < SharedRead && SharedRead < PrivateWrite && PrivateWrite < SharedWrite) {
		t.Fatal("class ordering does not encode Table 1 priorities")
	}
}

func TestTable1Strategies(t *testing.T) {
	// Table 1: read-intensive classes use async copy; write-intensive
	// classes use sync copy.
	if !PrivateRead.Async() || !SharedRead.Async() {
		t.Fatal("read-intensive classes must copy asynchronously")
	}
	if PrivateWrite.Async() || SharedWrite.Async() {
		t.Fatal("write-intensive classes must copy synchronously")
	}
}

func TestClassStrings(t *testing.T) {
	want := map[PageClass]string{
		PrivateRead: "private-read", SharedRead: "shared-read",
		PrivateWrite: "private-write", SharedWrite: "shared-write",
		NumClasses: "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// queueApp builds a started app whose pages we can classify.
func queueApp(t *testing.T) (*system.App, *system.System) {
	t.Helper()
	sys := testSystem(t, 64,
		workload.AppConfig{
			Name: "qa", Class: workload.LC, Threads: 4, RSSPages: 2000,
			SharedFraction: 0.5, ComputeNs: 100 * sim.Nanosecond,
			NewGen: func(p int, rng *sim.RNG) workload.Generator {
				return workload.NewUniform(p, 0.3, 0, rng)
			},
		})
	return sys.App("qa"), sys
}

// setOwner pins a page's ownership regardless of access history by
// reinstalling its PTE with the owner field replaced. A private owner
// links the page's leaf, as its own first access would have.
func setOwner(t *testing.T, app *system.App, vp pagetable.VPage, owner uint8) {
	t.Helper()
	p, ok := app.Table.Unmap(vp)
	if !ok {
		t.Fatalf("page %d not mapped", vp)
	}
	tid := 0
	if owner != pagetable.OwnerShared {
		tid = int(owner)
	}
	if err := app.Table.Install(tid, vp, p.WithOwner(owner)); err != nil {
		t.Fatal(err)
	}
}

func TestQueuesRebuildAndDrainOrder(t *testing.T) {
	app, _ := queueApp(t)
	setOwner(t, app, 10, pagetable.OwnerShared)
	setOwner(t, app, 20, 1)
	setOwner(t, app, 30, 1)
	setOwner(t, app, 35, pagetable.OwnerShared)

	cands := []profile.PageHeat{
		{VP: 10, Heat: 100, WriteFrac: 0},   // shared-read   ★★★
		{VP: 20, Heat: 50, WriteFrac: 0},    // private-read  ★★★★
		{VP: 30, Heat: 200, WriteFrac: 0.8}, // private-write ★★
		{VP: 35, Heat: 300, WriteFrac: 0.8}, // shared-write  ★
	}
	pq := NewPromotionQueues()
	pq.Rebuild(app, cands)
	if pq.Total() != 4 {
		t.Fatalf("Total = %d, want 4", pq.Total())
	}
	var order []pagetable.VPage
	pq.Drain(func(it QueueItem) bool {
		order = append(order, it.VP)
		return true
	})
	want := []pagetable.VPage{20, 10, 30, 35}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("drain order %v, want %v (Table 1 priorities)", order, want)
		}
	}
}

func TestQueuesDrainBudgetStops(t *testing.T) {
	app, _ := queueApp(t)
	cands := []profile.PageHeat{
		{VP: 1, Heat: 5}, {VP: 2, Heat: 4}, {VP: 3, Heat: 3},
	}
	pq := NewPromotionQueues()
	pq.Rebuild(app, cands)
	n := 0
	pq.Drain(func(QueueItem) bool {
		n++
		return n < 2
	})
	if n != 2 {
		t.Fatalf("drained %d, want stop at 2", n)
	}
}

func TestQueuesHeatOrderWithinClass(t *testing.T) {
	app, _ := queueApp(t)
	for _, vp := range []pagetable.VPage{5, 6, 7} {
		setOwner(t, app, vp, 2)
	}
	cands := []profile.PageHeat{
		{VP: 5, Heat: 10}, {VP: 6, Heat: 99}, {VP: 7, Heat: 50},
	}
	pq := NewPromotionQueues()
	pq.Rebuild(app, cands)
	var order []pagetable.VPage
	pq.Drain(func(it QueueItem) bool {
		order = append(order, it.VP)
		return true
	})
	if order[0] != 6 || order[1] != 7 || order[2] != 5 {
		t.Fatalf("within-class order %v, want hottest first", order)
	}
}

func TestMLFQEscalation(t *testing.T) {
	app, _ := queueApp(t)
	setOwner(t, app, 40, 1)
	// A write-intensive private page waits one epoch with rising heat:
	// it must be served from one queue higher.
	cands := []profile.PageHeat{{VP: 40, Heat: 10, WriteFrac: 0.9}}
	pq := NewPromotionQueues()
	pq.Rebuild(app, cands)
	if pq.Len(PrivateWrite) != 1 {
		t.Fatalf("initial queue wrong: %d entries in private-write", pq.Len(PrivateWrite))
	}
	// Not drained (budget 0) -> waits. Heat rises next epoch.
	pq.Drain(func(QueueItem) bool { return false })
	pq.Rebuild(app, []profile.PageHeat{{VP: 40, Heat: 20, WriteFrac: 0.9}})
	if pq.Len(SharedRead) != 1 {
		t.Fatalf("MLFQ did not escalate: shared-read queue has %d", pq.Len(SharedRead))
	}
	served := false
	pq.Drain(func(it QueueItem) bool {
		if it.VP == 40 {
			served = true
			if !it.Boosted {
				t.Error("item not marked boosted")
			}
			if it.Class != PrivateWrite {
				t.Errorf("intrinsic class = %v, want private-write", it.Class)
			}
			if it.Queue != SharedRead {
				t.Errorf("served queue = %v, want shared-read", it.Queue)
			}
		}
		return true
	})
	if !served {
		t.Fatal("escalated page never served")
	}
}

func TestMLFQDisabled(t *testing.T) {
	app, _ := queueApp(t)
	setOwner(t, app, 40, 1)
	pq := NewPromotionQueues()
	pq.DisableMLFQ()
	pq.Rebuild(app, []profile.PageHeat{{VP: 40, Heat: 10, WriteFrac: 0.9}})
	pq.Drain(func(QueueItem) bool { return false })
	pq.Rebuild(app, []profile.PageHeat{{VP: 40, Heat: 20, WriteFrac: 0.9}})
	if pq.Len(PrivateWrite) != 1 {
		t.Fatal("disabled MLFQ still escalated")
	}
}

func TestMLFQNoEscalationWhenDrained(t *testing.T) {
	app, _ := queueApp(t)
	setOwner(t, app, 40, 1)
	pq := NewPromotionQueues()
	pq.Rebuild(app, []profile.PageHeat{{VP: 40, Heat: 10, WriteFrac: 0.9}})
	pq.Drain(func(QueueItem) bool { return true }) // served
	pq.Rebuild(app, []profile.PageHeat{{VP: 40, Heat: 20, WriteFrac: 0.9}})
	if pq.Len(PrivateWrite) != 1 {
		t.Fatal("served page escalated anyway")
	}
}

func TestQueuesSkipUnmappedCandidates(t *testing.T) {
	app, _ := queueApp(t)
	pq := NewPromotionQueues()
	pq.Rebuild(app, []profile.PageHeat{{VP: 999999, Heat: 10}})
	if pq.Total() != 0 {
		t.Fatal("unmapped candidate enqueued")
	}
}
