package core

import (
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

// cbfrpUnitPages is CBFRP's transfer quantum: a borrower gains at most
// this many pages per transfer.
const cbfrpUnitPages int = 512

// TransferKind classifies one CBFRP quota movement.
type TransferKind uint8

// Transfer kinds, mirroring Algorithm 1's branches.
const (
	// TransferSeed is a newcomer's initial allocation (line 2).
	TransferSeed TransferKind = iota
	// TransferPool grants unallocated capacity at no credit cost.
	TransferPool
	// TransferDonate moves surplus from the min-credit donor.
	TransferDonate
	// TransferReclaim is an LC borrower clawing back from an
	// over-entitled BE workload (lines 11–13).
	TransferReclaim
)

// String names the kind for telemetry notes.
func (k TransferKind) String() string {
	switch k {
	case TransferSeed:
		return "seed"
	case TransferPool:
		return "pool"
	case TransferDonate:
		return "donate"
	case TransferReclaim:
		return "reclaim"
	default:
		return "transfer"
	}
}

// Transfer records one quota movement of the latest CBFRP invocation.
// From is "" for movements out of the free pool.
type Transfer struct {
	Kind  TransferKind
	From  string
	To    string
	Units int
}

// CBFRP runs Credit-Based Fair Resource Partitioning (Algorithm 1) over
// the registered workloads, producing updated fast-tier quotas
// (QoSState.Alloc) and credit balances.
//
// Allocations persist across invocations — that is what makes the
// algorithm's LC-reclaim branch (lines 11–13) reachable: when a new
// workload arrives, GFMC shrinks and incumbent best-effort workloads may
// hold more than the new entitlement, so a latency-critical borrower can
// claw units back from them. Within one invocation:
//
//   - A newly admitted workload is seeded with min(demand, GFMC, free
//     pool) (Algorithm 1 line 2).
//   - Workloads holding more than they demand are donors; donating earns
//     Karma-style credits, borrowing spends them, and the donation
//     opportunity goes to the donor with the fewest credits so long-run
//     contributions equalize.
//   - Unallocated capacity (the free pool) is handed to borrowers first,
//     at no credit cost — it is nobody's share.
//   - LC borrowers are always served before BE borrowers; with no donors
//     left, an LC borrower reclaims from a randomly chosen BE workload
//     allocated above GFMC.
func (q *QoSController) CBFRP(fastCapacity int, rng *sim.RNG) {
	q.Transfers = q.Transfers[:0]
	n := len(q.states)
	if n == 0 {
		return
	}
	gfmc := q.GFMC(fastCapacity)

	// Free pool: capacity not yet assigned to initialized workloads.
	pool := fastCapacity
	for _, st := range q.states {
		if st.initialized {
			pool -= st.Alloc
		}
	}
	// Seed newcomers (Algorithm 1 lines 1–2, bounded by what is free).
	for _, st := range q.states {
		if st.initialized {
			continue
		}
		alloc := st.Demand
		if alloc > gfmc {
			alloc = gfmc
		}
		if alloc > pool {
			alloc = pool
		}
		st.Alloc = alloc
		pool -= alloc
		st.initialized = true
		if alloc > 0 {
			q.Transfers = append(q.Transfers, Transfer{
				Kind: TransferSeed, To: st.App.Name(), Units: alloc})
		}
	}

	borrower := func(class workload.Class) *QoSState {
		var best *QoSState
		for _, st := range q.states {
			if st.App.Class() != class || st.Alloc >= st.Demand {
				continue
			}
			if best == nil || st.Credits > best.Credits {
				best = st
			}
		}
		return best
	}
	minCreditDonor := func() *QoSState {
		var best *QoSState
		for _, st := range q.states {
			if st.Alloc <= st.Demand {
				continue
			}
			if best == nil || st.Credits < best.Credits {
				best = st
			}
		}
		return best
	}
	overEntitledBE := func() *QoSState {
		var cands []*QoSState
		for _, st := range q.states {
			if st.App.Class() == workload.BE && st.Alloc > gfmc {
				cands = append(cands, st)
			}
		}
		if len(cands) == 0 {
			return nil
		}
		return cands[rng.Intn(len(cands))]
	}

	for {
		b := borrower(workload.LC)
		if b == nil {
			b = borrower(workload.BE)
		}
		if b == nil {
			return
		}
		step := b.Demand - b.Alloc
		if step > cbfrpUnitPages {
			step = cbfrpUnitPages
		}
		switch {
		case pool > 0:
			if step > pool {
				step = pool
			}
			pool -= step
			b.Alloc += step
			q.Transfers = append(q.Transfers, Transfer{
				Kind: TransferPool, To: b.App.Name(), Units: step})
		case minCreditDonor() != nil:
			d := minCreditDonor()
			if surplus := d.Alloc - d.Demand; step > surplus {
				step = surplus
			}
			d.Alloc -= step
			b.Alloc += step
			d.Credits += step
			b.Credits -= step
			q.Transfers = append(q.Transfers, Transfer{
				Kind: TransferDonate, From: d.App.Name(), To: b.App.Name(), Units: step})
		case b.App.Class() == workload.LC:
			d := overEntitledBE()
			if d == nil {
				return
			}
			if excess := d.Alloc - gfmc; step > excess {
				step = excess
			}
			d.Alloc -= step
			b.Alloc += step
			d.Credits += step
			b.Credits -= step
			q.Transfers = append(q.Transfers, Transfer{
				Kind: TransferReclaim, From: d.App.Name(), To: b.App.Name(), Units: step})
		default:
			return
		}
	}
}
