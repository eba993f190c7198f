package core

import (
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// testSystem builds a small co-location system with the given per-app
// classes and RSS, using a null policy so tests can drive the QoS
// controller by hand.
func testSystem(t *testing.T, fastPages int, specs ...workload.AppConfig) *system.System {
	t.Helper()
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 32
	mcfg.Tiers[mem.TierFast].CapacityPages = fastPages
	mcfg.Tiers[mem.TierSlow].CapacityPages = 1 << 16
	sys := system.New(system.Config{
		Machine:     mcfg,
		Apps:        specs,
		EpochLength: 10 * sim.Millisecond,
	})
	sys.RunEpoch() // admit everyone, produce first measurements
	return sys
}

func appSpec(name string, class workload.Class, rss int) workload.AppConfig {
	return workload.AppConfig{
		Name: name, Class: class, Threads: 2, RSSPages: rss,
		SharedFraction: 0.5, ComputeNs: 100 * sim.Nanosecond,
		NewGen: func(p int, rng *sim.RNG) workload.Generator {
			return workload.NewZipfian(p, 0.99, 0.2, 0.1, rng)
		},
	}
}

func TestGPTClamping(t *testing.T) {
	sys := testSystem(t, 4096,
		appSpec("small", workload.LC, 1000), // GFMC 2048 >= RSS -> GPT 1
		appSpec("big", workload.BE, 8000),   // GFMC 2048 < RSS -> GPT 2048/RSS
	)
	q := NewQoSController()
	for _, a := range sys.Apps() {
		q.Register(a)
	}
	q.UpdateDemands(4096)
	small := q.State(sys.App("small"))
	big := q.State(sys.App("big"))
	if small.GPT != 1 {
		t.Fatalf("small GPT = %v, want 1", small.GPT)
	}
	wantBig := 2048.0 / float64(big.App.RSSMapped())
	if diff := big.GPT - wantBig; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("big GPT = %v, want %v", big.GPT, wantBig)
	}
}

func TestDemandRespondsToFTHRDeficit(t *testing.T) {
	// An app whose FTHR is far below its GPT must demand more than it
	// holds; demand is clamped to RSS.
	sys := testSystem(t, 512, appSpec("a", workload.LC, 4000))
	q := NewQoSController()
	q.Register(sys.App("a"))
	q.UpdateDemands(512)
	st := q.State(sys.App("a"))
	if st.Demand <= st.App.FastPages() && st.App.FTHR() < st.GPT {
		t.Fatalf("deficit did not raise demand: demand=%d fast=%d fthr=%v gpt=%v",
			st.Demand, st.App.FastPages(), st.App.FTHR(), st.GPT)
	}
	if st.Demand > st.App.RSSMapped() {
		t.Fatalf("demand %d exceeds RSS %d", st.Demand, st.App.RSSMapped())
	}
}

func TestGFMC(t *testing.T) {
	q := NewQoSController()
	if q.GFMC(1000) != 1000 {
		t.Fatal("empty controller GFMC should be full capacity")
	}
	sys := testSystem(t, 1024,
		appSpec("a", workload.LC, 500),
		appSpec("b", workload.BE, 500),
	)
	q.Register(sys.App("a"))
	q.Register(sys.App("b"))
	if q.GFMC(1024) != 512 {
		t.Fatalf("GFMC = %d, want 512", q.GFMC(1024))
	}
}

func TestRegisterTwicePanics(t *testing.T) {
	sys := testSystem(t, 256, appSpec("a", workload.LC, 100))
	q := NewQoSController()
	q.Register(sys.App("a"))
	defer func() {
		if recover() == nil {
			t.Fatal("double register did not panic")
		}
	}()
	q.Register(sys.App("a"))
}

// cbfrpFixture builds a controller over three apps (LC, BE, BE) with
// hand-set demands.
func cbfrpFixture(t *testing.T, demands map[string]int) (*QoSController, *system.System) {
	t.Helper()
	sys := testSystem(t, 3000,
		appSpec("lc", workload.LC, 4000),
		appSpec("be1", workload.BE, 4000),
		appSpec("be2", workload.BE, 4000),
	)
	q := NewQoSController()
	for _, a := range sys.Apps() {
		st := q.Register(a)
		st.Demand = demands[a.Name()]
	}
	return q, sys
}

func TestCBFRPNoBorrowers(t *testing.T) {
	// Everyone demands at most the entitlement (1000 each): alloc=demand.
	q, _ := cbfrpFixture(t, map[string]int{"lc": 800, "be1": 1000, "be2": 500})
	q.CBFRP(3000, sim.NewRNG(1))
	for _, st := range q.States() {
		if st.Alloc != st.Demand {
			t.Fatalf("%s alloc=%d demand=%d", st.App.Name(), st.Alloc, st.Demand)
		}
		if st.Credits != 0 {
			t.Fatalf("%s credits=%d, want 0 (no transfers)", st.App.Name(), st.Credits)
		}
	}
}

func TestCBFRPFreePoolServedWithoutCredits(t *testing.T) {
	// LC demands 1800 (> 1000 entitlement); unallocated capacity covers
	// it at no credit cost.
	q, sys := cbfrpFixture(t, map[string]int{"lc": 1800, "be1": 1000, "be2": 200})
	q.CBFRP(3000, sim.NewRNG(1))
	lc := q.State(sys.App("lc"))
	be2 := q.State(sys.App("be2"))
	if lc.Alloc != 1800 {
		t.Fatalf("lc alloc = %d, want full demand 1800", lc.Alloc)
	}
	if be2.Alloc != 200 {
		t.Fatalf("be2 alloc = %d, want its demand 200", be2.Alloc)
	}
	if lc.Credits != 0 || be2.Credits != 0 {
		t.Fatalf("free-pool borrowing moved credits: lc=%d be2=%d",
			lc.Credits, be2.Credits)
	}
}

func TestCBFRPDonorToBorrower(t *testing.T) {
	// Phase 1 fills everyone to entitlement; phase 2: be2's demand drops
	// to 200 (donor), lc's rises to 1800 (borrower).
	q, sys := cbfrpFixture(t, map[string]int{"lc": 1000, "be1": 1000, "be2": 1000})
	q.CBFRP(3000, sim.NewRNG(1))
	q.State(sys.App("lc")).Demand = 1800
	q.State(sys.App("be2")).Demand = 200
	q.CBFRP(3000, sim.NewRNG(1))
	lc := q.State(sys.App("lc"))
	be2 := q.State(sys.App("be2"))
	if lc.Alloc != 1800 {
		t.Fatalf("lc alloc = %d, want full demand 1800", lc.Alloc)
	}
	if be2.Alloc != 200 {
		t.Fatalf("be2 alloc = %d, want its demand 200", be2.Alloc)
	}
	if be2.Credits != 800 {
		t.Fatalf("donor credits = %d, want 800", be2.Credits)
	}
	if lc.Credits != -800 {
		t.Fatalf("borrower credits = %d, want -800", lc.Credits)
	}
}

func TestCBFRPLCPriorityOverBE(t *testing.T) {
	// Donor surplus 400; both LC and BE want extra. LC is served first
	// and exhausts the surplus.
	q, sys := cbfrpFixture(t, map[string]int{"lc": 1000, "be1": 1000, "be2": 1000})
	q.CBFRP(3000, sim.NewRNG(1))
	q.State(sys.App("lc")).Demand = 1600
	q.State(sys.App("be1")).Demand = 1600
	q.State(sys.App("be2")).Demand = 600
	q.CBFRP(3000, sim.NewRNG(1))
	lc := q.State(sys.App("lc"))
	be1 := q.State(sys.App("be1"))
	if lc.Alloc != 1400 {
		t.Fatalf("lc alloc = %d, want 1400 (entitlement + all 400 surplus)", lc.Alloc)
	}
	if be1.Alloc != 1000 {
		t.Fatalf("be1 alloc = %d, want bare entitlement 1000", be1.Alloc)
	}
}

func TestCBFRPLCReclaimsFromOverEntitledBE(t *testing.T) {
	// First round: BE1 borrows beyond entitlement from be2's surplus.
	q, sys := cbfrpFixture(t, map[string]int{"lc": 1000, "be1": 1800, "be2": 200})
	q.CBFRP(3000, sim.NewRNG(1))
	be1 := q.State(sys.App("be1"))
	if be1.Alloc != 1800 {
		t.Fatalf("setup: be1 alloc = %d, want 1800", be1.Alloc)
	}
	// Second round: LC now demands beyond entitlement; no donors remain
	// (be2 still wants its 200... make be2 demand full entitlement too).
	q.State(sys.App("lc")).Demand = 1600
	q.State(sys.App("be2")).Demand = 1000
	be1.Demand = 1800
	q.CBFRP(3000, sim.NewRNG(2))
	lc := q.State(sys.App("lc"))
	if lc.Alloc != 1600 {
		t.Fatalf("lc alloc = %d, want 1600 via BE reclaim", lc.Alloc)
	}
	if be1.Alloc != 1200 {
		t.Fatalf("be1 alloc = %d, want 1200 after LC reclaimed 600", be1.Alloc)
	}
}

func TestCBFRPConservation(t *testing.T) {
	// Total allocation never exceeds capacity regardless of demands.
	for _, d := range []map[string]int{
		{"lc": 4000, "be1": 4000, "be2": 4000},
		{"lc": 0, "be1": 0, "be2": 0},
		{"lc": 2999, "be1": 1, "be2": 1500},
	} {
		q, _ := cbfrpFixture(t, d)
		q.CBFRP(3000, sim.NewRNG(3))
		total := 0
		for _, st := range q.States() {
			if st.Alloc < 0 {
				t.Fatalf("negative alloc for %s", st.App.Name())
			}
			total += st.Alloc
		}
		if total > 3000 {
			t.Fatalf("allocations %d exceed capacity 3000 for %v", total, d)
		}
	}
}

func TestCBFRPMinCreditDonorChosen(t *testing.T) {
	// Two potential donors; the one with fewer credits donates (and so
	// earns credits, equalizing over time).
	q, sys := cbfrpFixture(t, map[string]int{"lc": 1000, "be1": 1000, "be2": 1000})
	q.CBFRP(3000, sim.NewRNG(4))
	// The borrower needs exactly one transfer quantum.
	q.State(sys.App("lc")).Demand = 1000 + cbfrpUnitPages
	q.State(sys.App("be1")).Demand = 1000 - cbfrpUnitPages
	q.State(sys.App("be2")).Demand = 1000 - cbfrpUnitPages
	q.State(sys.App("be1")).Credits = 100
	q.State(sys.App("be2")).Credits = 0
	q.CBFRP(3000, sim.NewRNG(4))
	if got := q.State(sys.App("be2")).Credits; got != cbfrpUnitPages {
		t.Fatalf("low-credit donor earned %d, want %d", got, cbfrpUnitPages)
	}
	if got := q.State(sys.App("be1")).Credits; got != 100 {
		t.Fatalf("high-credit donor credits changed: %d", got)
	}
	if got := q.State(sys.App("lc")).Alloc; got != 1000+cbfrpUnitPages {
		t.Fatalf("lc alloc = %d, want %d", got, 1000+cbfrpUnitPages)
	}
}
