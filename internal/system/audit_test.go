package system

import (
	"fmt"
	"slices"
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/migrate"
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

// TestAuditCatchesMappedFreeFrame moves a PTE onto the frame on top of
// the fast tier's free stack, leaking its old frame: every count still
// balances, so only the walk over the free stack sees the frame that is
// both mapped and free.
func TestAuditCatchesMappedFreeFrame(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(256, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 100, 0)},
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch()
	a := sys.App("a")
	var free []uint32
	sys.tiers.Fast().EachFree(func(idx uint32) { free = append(free, idx) })
	if len(free) == 0 {
		t.Fatal("setup: no free fast frame")
	}
	f := mem.Frame{Tier: mem.TierFast, Index: free[len(free)-1]}
	p, _ := a.Table.Unmap(1)
	if err := a.Table.Install(0, 1, p.WithFrame(f)); err != nil {
		t.Fatal(err)
	}
	rep := sys.Audit()
	want := []string{fmt.Sprintf("frame %v claimed twice, the second time by tier:0x0(free)", f)}
	if !slices.Equal(rep.Errors, want) {
		t.Fatalf("audit errors = %q, want %q", rep.Errors, want)
	}
}

// shadowing is a test policy that only switches the shadowing
// mechanism on; tests drive its migrations.
type shadowing struct{}

func (shadowing) Name() string             { return "shadowing" }
func (shadowing) Mechanisms() Mechanisms   { return Mechanisms{Shadowing: true} }
func (shadowing) AppStarted(*System, *App) {}
func (shadowing) EndEpoch(*System)         {}

// TestAuditCatchesFreeShadowFrame returns a shadow frame to the slow
// tier's free stack while the engine still holds it, and takes another
// frame off the fast tier's stack so the used counts balance: the
// shadow, claimed once as a shadow and once as free, is the one error.
func TestAuditCatchesFreeShadowFrame(t *testing.T) {
	sys := New(Config{
		Machine:     tinyMachine(64, 2048),
		Apps:        []workload.AppConfig{tinyApp("a", workload.LC, 400, 0)},
		EpochLength: 10 * sim.Millisecond,
		Policy:      shadowing{},
	})
	sys.RunEpoch()
	a := sys.App("a")
	var slow []migrate.Move
	a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
		if p.Frame().Tier == mem.TierSlow && len(slow) < 2 {
			slow = append(slow, migrate.Move{VP: vp, To: mem.TierFast})
		}
		return true
	})
	// Demote three fast pages first, so the promotions find frames and
	// one fast frame stays free.
	var fast []migrate.Move
	a.Table.Range(func(vp pagetable.VPage, p pagetable.PTE) bool {
		if p.Frame().Tier == mem.TierFast && len(fast) < 3 {
			fast = append(fast, migrate.Move{VP: vp, To: mem.TierSlow})
		}
		return true
	})
	a.Engine.MigrateSync(fast)
	if res := a.Engine.MigrateSync(slow); res.Moved != 2 {
		t.Fatalf("setup: promoted %d of 2", res.Moved)
	}
	if rep := sys.Audit(); !rep.Ok() || rep.ShadowFrames != 2 {
		t.Fatalf("setup: %v %q", rep, rep.Errors)
	}
	var shadow mem.Frame
	a.Engine.EachShadow(func(_ pagetable.VPage, f mem.Frame) { shadow = f })
	sys.tiers.Free(shadow)
	if _, ok := sys.tiers.Alloc(mem.TierFast); !ok {
		t.Fatal("setup: fast tier full")
	}
	rep := sys.Audit()
	want := []string{fmt.Sprintf("frame %v claimed twice, the second time by tier:0x0(free)", shadow)}
	if !slices.Equal(rep.Errors, want) {
		t.Fatalf("audit errors = %q, want %q", rep.Errors, want)
	}
}
