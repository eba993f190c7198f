package machine

import (
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/sim"
)

// TestFig2Calibration pins the cost model to the paper's Figure 2: a
// single base-page migration costs ~50K cycles on 2 CPUs and ~750K on 32,
// with preparation growing from ~38% to ~77% of the total.
func TestFig2Calibration(t *testing.T) {
	c := DefaultCostModel()
	b2 := c.MigrationBreakdown(1, 2, MigrationOptions{Targets: 2})
	b32 := c.MigrationBreakdown(1, 32, MigrationOptions{Targets: 32})

	if tot := b2.Total(); tot < 40_000 || tot > 62_000 {
		t.Errorf("2-CPU single-page migration = %.0f cycles, want ~50K", tot)
	}
	if tot := b32.Total(); tot < 650_000 || tot > 850_000 {
		t.Errorf("32-CPU single-page migration = %.0f cycles, want ~750K", tot)
	}
	if s := b2.PrepShare(); s < 0.30 || s > 0.46 {
		t.Errorf("2-CPU prep share = %.3f, want ~0.383", s)
	}
	if s := b32.PrepShare(); s < 0.70 || s > 0.84 {
		t.Errorf("32-CPU prep share = %.3f, want ~0.769", s)
	}
}

// TestFig2Monotonicity checks that both the total and the prep share grow
// monotonically with CPU count, as in Figure 2.
func TestFig2Monotonicity(t *testing.T) {
	c := DefaultCostModel()
	prevTotal, prevShare := 0.0, 0.0
	for _, cpus := range []int{2, 4, 8, 16, 32} {
		b := c.MigrationBreakdown(1, cpus, MigrationOptions{Targets: cpus})
		if b.Total() <= prevTotal {
			t.Fatalf("total not increasing at %d CPUs", cpus)
		}
		if b.PrepShare() <= prevShare {
			t.Fatalf("prep share not increasing at %d CPUs", cpus)
		}
		prevTotal, prevShare = b.Total(), b.PrepShare()
	}
}

// TestFig3Calibration pins the Figure 3 anchor: TLB operations consume
// ~65% of real migration time (shootdown+copy) at 512 pages × 32 threads,
// while copying dominates small single-threaded migrations.
func TestFig3Calibration(t *testing.T) {
	c := DefaultCostModel()
	big := c.MigrationBreakdown(512, 32, MigrationOptions{Targets: 32})
	if s := big.TLBShareOfReal(); s < 0.58 || s > 0.72 {
		t.Errorf("TLB share at 512 pages/32 threads = %.3f, want ~0.65", s)
	}
	small := c.MigrationBreakdown(2, 32, MigrationOptions{Targets: 0})
	if s := small.TLBShareOfReal(); s > 0.10 {
		t.Errorf("TLB share for private 2-page migration = %.3f, want copy-dominated", s)
	}
}

// TestFig3TLBShareGrowsWithThreads verifies the TLB share rises with the
// shootdown target count at fixed batch size.
func TestFig3TLBShareGrowsWithThreads(t *testing.T) {
	c := DefaultCostModel()
	prev := -1.0
	for _, threads := range []int{1, 2, 4, 8, 16, 32} {
		targets := threads - 1 // initiator invalidates locally
		b := c.MigrationBreakdown(128, 32, MigrationOptions{Targets: targets})
		if s := b.TLBShareOfReal(); s <= prev {
			t.Fatalf("TLB share not increasing at %d threads: %.3f <= %.3f",
				threads, s, prev)
		} else {
			prev = s
		}
	}
}

func TestPrepOptimizedIsConstant(t *testing.T) {
	c := DefaultCostModel()
	a := c.PrepCycles(2, true)
	b := c.PrepCycles(32, true)
	if a != b {
		t.Fatalf("optimized prep varies with CPUs: %v vs %v", a, b)
	}
	if a >= c.PrepCycles(2, false) {
		t.Fatal("optimized prep not cheaper than baseline at 2 CPUs")
	}
}

func TestShootdownDegeneratesToLocal(t *testing.T) {
	c := DefaultCostModel()
	got := c.ShootdownCycles(4, 0)
	want := 4 * c.LocalInvalPerPage
	if got != want {
		t.Fatalf("zero-target shootdown = %v, want local-only %v", got, want)
	}
	if c.ShootdownCycles(0, 8) != 0 {
		t.Fatal("zero-page shootdown nonzero")
	}
}

func TestShootdownMonotone(t *testing.T) {
	c := DefaultCostModel()
	if c.ShootdownCycles(8, 4) >= c.ShootdownCycles(8, 8) {
		t.Fatal("shootdown not increasing in targets")
	}
	if c.ShootdownCycles(8, 4) >= c.ShootdownCycles(16, 4) {
		t.Fatal("shootdown not increasing in pages")
	}
}

func TestAccessCycles(t *testing.T) {
	c := DefaultCostModel()
	fast := mem.NewTier(mem.TierFast, mem.TierConfig{
		Name: "fast", CapacityPages: 16,
		UnloadedLatency: 70 * sim.Nanosecond, BandwidthGBs: 205,
	})
	hit := c.AccessCycles(fast, true, 0)
	miss := c.AccessCycles(fast, false, 0)
	if hit >= miss {
		t.Fatalf("TLB hit (%v) not cheaper than miss (%v)", hit, miss)
	}
	// 70ns * 3GHz = 210 cycles + 3 ≈ 213.
	if hit < 210 || hit > 220 {
		t.Fatalf("fast hit = %v cycles, want ~213", hit)
	}
	loaded := c.AccessCycles(fast, true, 1.0)
	if loaded <= hit {
		t.Fatal("loaded access not slower")
	}
}

func TestBreakdownHelpers(t *testing.T) {
	b := Breakdown{Prep: 50, Trap: 10, Unmap: 10, TLB: 20, Copy: 5, Remap: 5}
	if b.Total() != 100 {
		t.Fatalf("Total = %v", b.Total())
	}
	if b.PrepShare() != 0.5 {
		t.Fatalf("PrepShare = %v", b.PrepShare())
	}
	if b.TLBShareOfReal() != 0.8 {
		t.Fatalf("TLBShareOfReal = %v", b.TLBShareOfReal())
	}
	var zero Breakdown
	if zero.PrepShare() != 0 || zero.TLBShareOfReal() != 0 {
		t.Fatal("zero breakdown shares not 0")
	}
}

func TestMigrationBreakdownNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative pages did not panic")
		}
	}()
	DefaultCostModel().MigrationBreakdown(-1, 2, MigrationOptions{})
}

func TestMachineConstruction(t *testing.T) {
	m := New(DefaultConfig())
	if m.Cores() != 32 {
		t.Fatalf("Cores = %d, want 32", m.Cores())
	}
	if m.Now() != 0 {
		t.Fatal("fresh machine clock nonzero")
	}
	if m.Tiers.Fast().Capacity() != 32<<30/mem.PageSize/mem.Scale {
		t.Fatal("fast tier capacity wrong")
	}
}

func TestMachineZeroCoresPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("0-core machine did not panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Cores = 0
	New(cfg)
}

func TestAccessCyclesDegraded(t *testing.T) {
	c := DefaultCostModel()
	slow := mem.NewTier(mem.TierSlow, mem.TierConfig{
		Name: "slow", CapacityPages: 16,
		UnloadedLatency: 162 * sim.Nanosecond, BandwidthGBs: 25,
	})
	for _, tlbHit := range []bool{true, false} {
		base := c.AccessCycles(slow, tlbHit, 0.3)
		// spike 1 is the identity: bit-for-bit the baseline cost.
		if got := c.AccessCyclesDegraded(slow, tlbHit, 0.3, 1); got != base {
			t.Fatalf("spike=1 changed cost: %v != %v", got, base)
		}
		spiked := c.AccessCyclesDegraded(slow, tlbHit, 0.3, 1.5)
		if spiked <= base {
			t.Fatalf("spike=1.5 not slower: %v <= %v", spiked, base)
		}
		// Only the latency term scales: the delta is half the loaded
		// latency, independent of the translation outcome.
		wantDelta := float64(slow.LoadedLatency(0.3)) * sim.CyclesPerNs * 0.5
		if delta := spiked - base; !sim.ApproxEq(delta, wantDelta) {
			t.Fatalf("spike delta = %v, want %v", delta, wantDelta)
		}
	}
}
