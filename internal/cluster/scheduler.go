package cluster

import (
	"fmt"
	"strings"

	"vulcan/internal/mem"
)

// Scheduler is a fleet placement policy. Both methods run in the serial
// scheduling phase between epochs and must be deterministic: iterate
// hosts and jobs in index order, break ties toward the lowest index,
// and never consult wall clocks, maps in range order, or private RNGs.
type Scheduler interface {
	Name() string
	// Place picks a host for an arriving (or retrying) job, or returns
	// -1 to defer it an epoch. The fleet re-checks CanFit, so Place may
	// be optimistic; returning an over-committed host just defers.
	Place(f *Fleet, j *Job) int
	// Rebalance proposes up to budget cross-host moves. The fleet
	// validates and applies them in order; invalid entries are skipped.
	Rebalance(f *Fleet, budget int) []Move
}

// Move relocates one job to another host.
type Move struct {
	Job int
	To  int
}

// NewScheduler builds the named scheduler.
func NewScheduler(name string) (Scheduler, error) {
	switch name {
	case "binpack":
		return binpackSched{}, nil
	case "fairness":
		return fairnessSched{}, nil
	case "vulcan":
		return vulcanSched{}, nil
	}
	return nil, fmt.Errorf("cluster: unknown scheduler %q (have %s)",
		name, strings.Join(Schedulers(), ", "))
}

// Schedulers lists the registered scheduler names.
func Schedulers() []string { return []string{"binpack", "fairness", "vulcan"} }

// binpackSched packs jobs by fast-tier headroom: each job goes to the
// fittable host with the most free fast-tier pages, so hot working sets
// land where DRAM is. It never rebalances — the classic
// place-and-forget bin packer a fleet starts with.
type binpackSched struct{}

func (binpackSched) Name() string { return "binpack" }

func (binpackSched) Place(f *Fleet, j *Job) int {
	best, bestFree := -1, -1
	for h := 0; h < f.NumHosts(); h++ {
		if !f.CanFit(h, j) {
			continue
		}
		free := f.Host(h).Sys.Tiers().Tier(mem.TierFast).FreePages()
		if free > bestFree {
			best, bestFree = h, free
		}
	}
	return best
}

func (binpackSched) Rebalance(*Fleet, int) []Move { return nil }

// fairnessSched balances the fleet's Eq.4 fairness directly: placement
// targets the host whose tenants have accumulated the least
// efficiency-weighted fast-tier allocation (new tenants dilute rich
// hosts least there), and rebalance moves the weakest job off the
// poorest host onto the richest-headroom host — attacking the spread
// in per-host cumulative allocation that drags the combined index down.
type fairnessSched struct{}

func (fairnessSched) Name() string { return "fairness" }

// hostCumAlloc sums each host's tenants' cumulative CFI allocations.
func hostCumAlloc(f *Fleet) []float64 {
	cum := f.CFI().Cumulative()
	per := make([]float64, f.NumHosts())
	for _, j := range f.Jobs() {
		if j.Placed() {
			per[j.HostID] += cum[j.Idx]
		}
	}
	return per
}

func (fairnessSched) Place(f *Fleet, j *Job) int {
	per := hostCumAlloc(f)
	best := -1
	for h := 0; h < f.NumHosts(); h++ {
		if !f.CanFit(h, j) {
			continue
		}
		if best < 0 || per[h] < per[best] {
			best = h
		}
	}
	return best
}

func (fairnessSched) Rebalance(f *Fleet, budget int) []Move {
	per := hostCumAlloc(f)
	rich, poor := 0, 0
	for h := 1; h < f.NumHosts(); h++ {
		if per[h] > per[rich] {
			rich = h
		}
		if per[h] < per[poor] {
			poor = h
		}
	}
	// No meaningful gap (or a one-host fleet): leave placement alone —
	// cross-host copies are not free.
	if rich == poor || per[rich] < 2*per[poor]+1 {
		return nil
	}
	// Move the poorest host's lowest-cumulative job toward the gap?
	// No: the poorest host's tenants are the starved ones; give one of
	// them the rich host's headroom instead of letting it keep losing.
	cum := f.CFI().Cumulative()
	victim := -1
	for _, j := range f.Jobs() {
		if !j.Placed() || j.HostID != poor {
			continue
		}
		if victim < 0 || cum[j.Idx] < cum[victim] {
			victim = j.Idx
		}
	}
	if victim < 0 || budget < 1 {
		return nil
	}
	return []Move{{Job: victim, To: rich}}
}

// vulcanSched is the Vulcan-informed scheduler: it reads each host's
// tenants through their typed App accessors — the same FTHR and profile
// confidence the paper's profiler feeds the host policy — and steers
// placement by fast-tier pressure and profiler health. A host whose
// tenants show degraded profile confidence is already thrashing its
// profiler budget; parking another tenant there compounds the blindness,
// so such hosts are deprioritized even when they have headroom. It never
// reads telemetry, so its decisions are the same with any host sink.
type vulcanSched struct{}

func (vulcanSched) Name() string { return "vulcan" }

// hostPressure scores host h: fast-tier occupancy in [0,1] plus one
// full point per tenant whose profile confidence has collapsed below
// 0.5 (the system's own degradation threshold territory).
func hostPressure(f *Fleet, h int) float64 {
	sys := f.Host(h).Sys
	fast := sys.Tiers().Fast()
	score := 0.0
	if fast.Capacity() > 0 {
		score = float64(fast.Used()) / float64(fast.Capacity())
	}
	for _, a := range sys.StartedApps() {
		// Known defect, kept so fleet outputs stay put (ROADMAP "Decouple
		// fleet control from telemetry", step 2): a tenant with no
		// sample-fault stream has no confidence and scores as 0, so
		// every tenant on a fault-free host adds a full point.
		if conf, _ := a.ProfileConfidence(); conf < 0.5 {
			score += 1.0
		}
	}
	return score
}

func (vulcanSched) Place(f *Fleet, j *Job) int {
	best, bestScore := -1, 0.0
	for h := 0; h < f.NumHosts(); h++ {
		if !f.CanFit(h, j) {
			continue
		}
		score := hostPressure(f, h)
		if best < 0 || score < bestScore {
			best, bestScore = h, score
		}
	}
	return best
}

// Rebalance moves the coldest tenant (lowest FTHR — it runs mostly out
// of slow memory anyway, so the move costs it least) off the most
// pressured host onto the least pressured one. An instance placed but
// not yet admitted has no FTHR and counts as 0.
func (vulcanSched) Rebalance(f *Fleet, budget int) []Move {
	if budget < 1 || f.NumHosts() < 2 {
		return nil
	}
	hot, cold := 0, 0
	hotScore, coldScore := hostPressure(f, 0), hostPressure(f, 0)
	for h := 1; h < f.NumHosts(); h++ {
		s := hostPressure(f, h)
		if s > hotScore {
			hot, hotScore = h, s
		}
		if s < coldScore {
			cold, coldScore = h, s
		}
	}
	if hot == cold || hotScore < coldScore+0.25 {
		return nil
	}
	victim, victimFTHR := -1, 0.0
	for _, j := range f.Jobs() {
		if !j.Placed() || j.HostID != hot {
			continue
		}
		fthr := 0.0
		if j.app.Started() {
			fthr = j.app.FTHR()
		}
		if victim < 0 || fthr < victimFTHR {
			victim, victimFTHR = j.Idx, fthr
		}
	}
	if victim < 0 {
		return nil
	}
	return []Move{{Job: victim, To: cold}}
}
