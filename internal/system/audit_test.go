package system

import (
	"fmt"
	"testing"

	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

func TestAuditCleanSystem(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 500, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	rep := sys.Audit()
	if !rep.Ok() {
		t.Fatalf("clean system failed audit: %v", rep.Errors)
	}
	if rep.MappedFrames == 0 {
		t.Fatal("audit saw no mapped frames")
	}
	// used + free accounting is covered by Ok(); the counts must also be
	// self-consistent.
	if rep.MappedFrames+rep.ShadowFrames+rep.FreeFrames !=
		sys.Tiers().Fast().Capacity()+sys.Tiers().Slow().Capacity() {
		t.Fatalf("audit counts inconsistent: %v", rep)
	}
}

func TestAuditUnderMigrationChurn(t *testing.T) {
	// The promoteAll test policy migrates heavily; the ownership
	// invariant must hold after every epoch.
	sys := New(Config{
		Machine:     tinyMachine(128, 4096),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 2000, 0)},
		EpochLength: 10 * sim.Millisecond,
		Policy:      &promoteAll{},
	})
	for i := 0; i < 20; i++ {
		sys.RunEpoch()
		if rep := sys.Audit(); !rep.Ok() {
			t.Fatalf("audit failed after epoch %d: %v", i, rep.Errors)
		}
	}
}

func TestAuditMultiApp(t *testing.T) {
	sys := New(Config{
		Machine: tinyMachine(256, 4096),
		Apps: []workload.AppConfig{
			tinyApp("a", workload.LC, 400, 0),
			tinyApp("b", workload.BE, 600, 0),
		},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.Run(50 * sim.Millisecond)
	if rep := sys.Audit(); !rep.Ok() {
		t.Fatalf("multi-app audit failed: %v", rep.Errors)
	}
}

func TestAuditDetectsDoubleMapping(t *testing.T) {
	// Sabotage: map the same frame from two pages; the audit must flag it.
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 100, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	a := sys.App("a")
	p0, _ := a.Table.Lookup(0)
	p1, _ := a.Table.Unmap(1)
	if err := a.Table.Install(0, 1, p1.WithFrame(p0.Frame())); err != nil {
		t.Fatal(err)
	}
	rep := sys.Audit()
	if rep.Ok() {
		t.Fatal("audit missed a double-mapped frame")
	}
}

// TestAuditCatchesPartialHugeLeaf unmaps one page of a huge leaf
// without splitting it first, releasing its frame so the frame
// accounting still balances: the partial leaf marked huge is the one
// violation, and Audit reports it.
func TestAuditCatchesPartialHugeLeaf(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 1200, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	a := sys.App("a")
	huge := hugeLeafList(a)
	if len(huge) == 0 {
		t.Fatal("setup: no huge leaf left after one epoch")
	}
	if rep := sys.Audit(); !rep.Ok() {
		t.Fatalf("setup: %v", rep.Errors)
	}
	vp := pagetable.VPage(huge[0]<<9 + 7)
	p, ok := a.Table.Unmap(vp)
	if !ok {
		t.Fatalf("setup: page %#x not mapped", uint64(vp))
	}
	sys.tiers.Free(p.Frame())
	rep := sys.Audit()
	want := fmt.Sprintf("a: pagetable: huge leaf at %#x not fully present", huge[0]<<9)
	if len(rep.Errors) != 1 || rep.Errors[0] != want {
		t.Fatalf("audit errors = %q, want [%q]", rep.Errors, want)
	}
}
