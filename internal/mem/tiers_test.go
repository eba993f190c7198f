package mem

import (
	"testing"

	"vulcan/internal/sim"
)

func smallTiers() *Tiers {
	return NewTiers([NumTiers]TierConfig{
		TierFast: {Name: "fast", CapacityPages: 8, UnloadedLatency: 70, BandwidthGBs: 205},
		TierSlow: {Name: "slow", CapacityPages: 64, UnloadedLatency: 162, BandwidthGBs: 25},
	})
}

func TestDefaultConfigRatios(t *testing.T) {
	cfg := DefaultConfig()
	fast, slow := cfg[TierFast], cfg[TierSlow]
	if slow.CapacityPages != 8*fast.CapacityPages {
		t.Fatalf("slow/fast capacity ratio = %d/%d, want 8x",
			slow.CapacityPages, fast.CapacityPages)
	}
	if fast.CapacityPages != 32<<30/PageSize/Scale {
		t.Fatalf("fast capacity = %d pages", fast.CapacityPages)
	}
	if fast.UnloadedLatency != 70*sim.Nanosecond || slow.UnloadedLatency != 162*sim.Nanosecond {
		t.Fatal("tier latencies do not match the paper's 70ns/162ns")
	}
}

func TestAllocPreferFastFallsBack(t *testing.T) {
	ts := smallTiers()
	for i := 0; i < 8; i++ {
		f, ok := ts.AllocPreferFast()
		if !ok || f.Tier != TierFast {
			t.Fatalf("alloc %d: frame %v ok=%v, want fast", i, f, ok)
		}
	}
	f, ok := ts.AllocPreferFast()
	if !ok || f.Tier != TierSlow {
		t.Fatalf("overflow alloc got %v ok=%v, want slow tier", f, ok)
	}
}

func TestTiersExhaustion(t *testing.T) {
	ts := smallTiers()
	for i := 0; i < 8+64; i++ {
		if _, ok := ts.AllocPreferFast(); !ok {
			t.Fatalf("alloc %d failed before total capacity", i)
		}
	}
	if _, ok := ts.AllocPreferFast(); ok {
		t.Fatal("alloc succeeded past total capacity")
	}
}

func TestTiersFreeRoundTrip(t *testing.T) {
	ts := smallTiers()
	f, _ := ts.Alloc(TierSlow)
	ts.Free(f)
	if ts.Slow().Used() != 0 {
		t.Fatal("slow tier not empty after free")
	}
}

func TestTiersFreeNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("freeing NilFrame did not panic")
		}
	}()
	smallTiers().Free(NilFrame)
}

func TestTiersInvalidTierPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid tier access did not panic")
		}
	}()
	smallTiers().Tier(NumTiers)
}

func TestNilFrame(t *testing.T) {
	if !NilFrame.IsNil() {
		t.Fatal("NilFrame not nil")
	}
	f := Frame{Tier: TierFast, Index: 3}
	if f.IsNil() {
		t.Fatal("real frame reported nil")
	}
	if f.String() != "fast:3" {
		t.Fatalf("frame string = %q", f.String())
	}
}
