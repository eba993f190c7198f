package core

import (
	"math/bits"

	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/obs"
	"vulcan/internal/pagetable"
	"vulcan/internal/policy"
	"vulcan/internal/profile"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

// Options configure Vulcan; the Disable* switches exist for the ablation
// experiments (each corresponds to one of the four innovations).
type Options struct {
	// DisableCBFRP replaces credit-based partitioning with a static even
	// split of the fast tier (the "straw-man uniform allocation" §3.3).
	DisableCBFRP bool
	// DisableMLFQ turns off heat-escalation between priority queues.
	DisableMLFQ bool
	// DisableBiasedQueues collapses the four queues into one heat-ordered
	// async queue (no Table 1 classification).
	DisableBiasedQueues bool
	// DisablePerThreadPT gives up targeted shootdowns (§3.4).
	DisablePerThreadPT bool
	// DisableOptimizedPrep reverts to the kernel's global LRU drain.
	DisableOptimizedPrep bool
	// DisableShadowing drops Nomad-style shadow copies (§3.5).
	DisableShadowing bool
}

// Vulcan's tuning.
const (
	// migThreadBudget is each app's dedicated migration-thread CPU per
	// epoch, in multiples of one core's epoch cycles (§3.2: "dedicated
	// migration threads created for each application").
	migThreadBudget float64 = 1.0
	// promoteLimit caps promotion candidates per app per epoch.
	promoteLimit = 16384
	// syncBatchLimit caps synchronous (write-intensive) migrations per
	// app per epoch.
	syncBatchLimit = 2048
	// sampleRate is the hybrid profiler's sampling period.
	sampleRate = 4
	// lcHeatDecay / beHeatDecay are the hybrid profiler's per-epoch aging
	// factors, chosen per workload class (§3.2: the daemon picks the
	// profiling configuration that fits each workload). Latency-critical
	// services get a slow decay so their steadily-hot-but-low-rate
	// working sets outrank transients; best-effort streamers get a fast
	// decay so scan residue cools quickly.
	lcHeatDecay float64 = 0.9
	beHeatDecay float64 = profile.DefaultDecay
	// swapLimit caps per-epoch within-quota rebalancing swaps; it is a
	// power of two, so swapWithinQuota's doubling rank size meets it.
	swapLimit = 1024
	// minSwapRank is swapWithinQuota's smallest rank size.
	minSwapRank = 64
	// cbfrpSeed drives CBFRP's random BE selection.
	cbfrpSeed uint64 = 99
)

// Vulcan is the paper's tiering framework as a system.Tiering policy.
type Vulcan struct {
	opts   Options
	qos    *QoSController
	queues map[*system.App]*PromotionQueues
	placed map[*system.App]int
	rng    *sim.RNG

	// Per-epoch scratch, reused so enforcement allocates nothing in
	// steady state.
	rank      policy.RankBuf     //vulcan:nosnap per-epoch ranking scratch, rebuilt every enforce pass
	cands     []profile.PageHeat //vulcan:nosnap per-epoch candidate scratch, refilled by slowCandidates
	syncBatch []migrate.Move     //vulcan:nosnap per-epoch sync-migration scratch, reused buffer
	// swapRank is each app's last swap count, swapWithinQuota's rank
	// size hint. Any hint yields the same swaps, so it is a cost memo,
	// not state.
	swapRank map[*system.App]int //vulcan:nosnap cost hint; every value gives identical swaps
}

// New builds Vulcan with opts (zero value = full system, defaults).
func New(opts Options) *Vulcan {
	return &Vulcan{
		opts:   opts,
		qos:    NewQoSController(),
		queues: make(map[*system.App]*PromotionQueues),
		placed: make(map[*system.App]int),
		rng:    sim.NewRNG(cbfrpSeed),

		swapRank: make(map[*system.App]int),
	}
}

// Name implements system.Tiering.
func (v *Vulcan) Name() string { return "vulcan" }

// QoS exposes the controller (figures read GPT/demand/credits from it).
func (v *Vulcan) QoS() *QoSController { return v.qos }

// Mechanisms implements system.Tiering: all of Vulcan's mechanism-level
// optimizations, minus any ablated ones.
func (v *Vulcan) Mechanisms() system.Mechanisms {
	return system.Mechanisms{
		OptimizedPrep:     !v.opts.DisableOptimizedPrep,
		TargetedShootdown: !v.opts.DisablePerThreadPT,
		Shadowing:         !v.opts.DisableShadowing,
	}
}

// NewProfiler implements system.ProfilerFactory: the FlexMem-style
// hybrid profiler (§3.2).
func (v *Vulcan) NewProfiler(app *system.App) profile.Profiler {
	decay := beHeatDecay
	if app.Class() == workload.LC {
		decay = lcHeatDecay
	}
	return profile.NewHybrid(app.Table, sampleRate, decay,
		uint64(app.Index)*7919+3)
}

// AppStarted implements system.Tiering.
func (v *Vulcan) AppStarted(sys *system.System, app *system.App) {
	v.qos.Register(app)
	v.queues[app] = NewPromotionQueues()
	if v.opts.DisableMLFQ {
		v.queues[app].DisableMLFQ()
	}
}

// AppStopped implements system.AppStopper: a departing app's QoS state,
// promotion queues and placement memory are dropped so future epochs
// and snapshots only see the surviving tenant set.
func (v *Vulcan) AppStopped(sys *system.System, app *system.App) {
	v.qos.Unregister(app)
	delete(v.queues, app)
	delete(v.placed, app)
	delete(v.swapRank, app)
}

// Place implements system.Placer: first-touch allocation respects the
// app's fast-tier quota so one tenant cannot monopolize the fast tier at
// admission time.
func (v *Vulcan) Place(sys *system.System, app *system.App) mem.TierID {
	if v.placed[app] < v.placeQuota(sys, app) {
		v.placed[app]++
		return mem.TierFast
	}
	return mem.TierSlow
}

// Premapped implements system.PremapPlacer. An admission's premap calls
// Place once per page with a fixed quota, the provisional share (the
// app registers after its premap), so it leaves the smaller of the two
// counted.
func (v *Vulcan) Premapped(sys *system.System, app *system.App, pages int) {
	v.placed[app] = min(pages, v.placeQuota(sys, app))
}

// placeQuota is the fast-tier page count first-touch placement grants
// app: its partitioned allocation, or before partitioning a
// provisional even share counting this app.
func (v *Vulcan) placeQuota(sys *system.System, app *system.App) int {
	if st := v.qos.State(app); st != nil && st.Alloc > 0 {
		return st.Alloc
	}
	return sys.Tiers().Fast().Capacity() / (len(v.qos.States()) + 1)
}

// EndEpoch implements system.Tiering: update QoS targets, partition with
// CBFRP, then enforce quotas per app through the biased migration policy,
// all executed by per-app migration threads (no global synchronization).
func (v *Vulcan) EndEpoch(sys *system.System) {
	fastCap := sys.Tiers().Fast().Capacity()
	v.qos.UpdateDemands(fastCap)
	if v.opts.DisableCBFRP {
		gfmc := v.qos.GFMC(fastCap)
		for _, st := range v.qos.States() {
			st.Alloc = gfmc
		}
	} else {
		v.qos.CBFRP(fastCap, v.rng)
		if obs.Enabled(sys.Obs(), obs.EvQoSAdapt) {
			for _, tr := range v.qos.Transfers {
				from := tr.From
				if from == "" {
					from = "pool"
				}
				e := obs.E(obs.EvQoSAdapt, "", "cbfrp", 0,
					obs.F("units", float64(tr.Units)))
				e.Note = tr.Kind.String() + " " + from + "->" + tr.To
				sys.Obs().Event(e)
			}
		}
	}

	for _, st := range v.qos.States() {
		// Graceful degradation under injected sample loss: when the
		// app's profile fell below the fault plan's confidence
		// threshold, its heat ranking is built from starved data —
		// enforcing it would demote pages that only look cold. Hold the
		// prior placement for the epoch (quota bookkeeping above still
		// ran, so credits and demand stay current).
		if st.App.ProfileDegraded() {
			v.placed[st.App] = st.App.FastPages()
			continue
		}
		v.enforce(sys, st)
		v.placed[st.App] = st.App.FastPages()
		// Figure 9 instrumentation: quota, GPT and demand over time.
		prefix := st.App.Name() + "."
		sys.Recorder().Record(prefix+"vulcan_alloc", float64(st.Alloc))
		sys.Recorder().Record(prefix+"vulcan_gpt", st.GPT)
		sys.Recorder().Record(prefix+"vulcan_demand", float64(st.Demand))
		sys.Recorder().Record(prefix+"vulcan_credits", float64(st.Credits))
		if obs.Enabled(sys.Obs(), obs.EvQoSAdapt) {
			shrink := 0.0
			if st.shrankLast {
				shrink = 1
			}
			sys.Obs().Event(obs.E(obs.EvQoSAdapt, st.App.Name(), "qos", 0,
				obs.F("alloc", float64(st.Alloc)),
				obs.F("demand", float64(st.Demand)),
				obs.F("credits", float64(st.Credits)),
				obs.F("gpt", st.GPT),
				obs.F("probe_shrink", shrink)))
		}
	}
}

// enforce reconciles one app's fast-tier residency with its quota.
func (v *Vulcan) enforce(sys *system.System, st *QoSState) {
	app := st.App
	budget := migThreadBudget * sys.EpochCycles()
	cur := app.FastPages()

	if cur > st.Alloc {
		// Over quota: demote the coldest pages; shadow remaps make the
		// clean ones nearly free.
		victims := v.rank.ColdestFastPages(app, cur-st.Alloc)
		if obs.Enabled(sys.Obs(), obs.EvDecision) {
			e := obs.E(obs.EvDecision, app.Name(), "policy", 0,
				obs.F("over", float64(cur-st.Alloc)),
				obs.F("victims", float64(len(victims))))
			e.Note = "demote"
			sys.Obs().Event(e)
		}
		for _, vp := range victims {
			app.Async.EnqueueOne(migrate.Move{VP: vp, To: mem.TierSlow})
		}
		app.Async.RunEpoch(budget, app.WriteProbability)
		return
	}

	room := st.Alloc - cur
	if room <= 0 {
		// At quota: latency-critical apps rebalance within it — swapping
		// in pages clearly hotter than the coldest residents keeps the
		// hot set resident as it drifts. Best-effort scanners skip this:
		// for cyclic access, evicting the "coldest" page is pessimal
		// (it is next in the scan), so swapping just thrashes.
		if app.Class() == workload.LC {
			v.swapWithinQuota(sys, app, budget)
		} else {
			app.Async.RunEpoch(budget, app.WriteProbability)
		}
		return
	}

	// Under quota: gather hot slow-tier candidates.
	candidates := v.slowCandidates(app, min(room+swapLimit, promoteLimit))
	if v.opts.DisableBiasedQueues {
		for _, c := range candidates {
			app.Async.EnqueueOne(migrate.Move{VP: c.VP, To: mem.TierFast})
		}
		app.Async.RunEpoch(budget, app.WriteProbability)
		return
	}

	q := v.queues[app]
	q.Rebuild(app, candidates)
	depths := q.Depths()
	boosted := q.BoostedCount()

	syncBatch := v.syncBatch[:0]
	taken := 0
	q.Drain(func(it QueueItem) bool {
		if taken >= room {
			return false
		}
		taken++
		if it.Class.Async() {
			app.Async.EnqueueOne(migrate.Move{VP: it.VP, To: mem.TierFast})
		} else if len(syncBatch) < syncBatchLimit {
			syncBatch = append(syncBatch, migrate.Move{VP: it.VP, To: mem.TierFast})
		}
		return true
	})
	if obs.Enabled(sys.Obs(), obs.EvQueueAdapt) {
		sys.Obs().Event(obs.E(obs.EvQueueAdapt, app.Name(), "queues", 0,
			obs.F("private_read", float64(depths[PrivateRead])),
			obs.F("shared_read", float64(depths[SharedRead])),
			obs.F("private_write", float64(depths[PrivateWrite])),
			obs.F("shared_write", float64(depths[SharedWrite])),
			obs.F("boosted", float64(boosted)),
			obs.F("sync_batch", float64(len(syncBatch))),
			obs.F("taken", float64(taken))))
	}

	v.syncBatch = syncBatch
	// Write-intensive pages migrate synchronously (Table 1): a dirty
	// page's writers block for the copy, so the copy phase is charged to
	// the app while the whole operation consumes migration-thread budget.
	if len(syncBatch) > 0 {
		res := app.Engine.MigrateSync(syncBatch)
		budget -= res.Cycles()
		app.ChargeStall(res.Breakdown.Copy)
	}
	if budget > 0 {
		app.Async.RunEpoch(budget, app.WriteProbability)
	}
}

// swapWithinQuota demotes the coldest fast pages to admit strictly
// hotter slow candidates, without changing the app's allocation.
//
// Pairs swap from the top of both rankings until the first pair that
// does not, so only a prefix of each ranking matters. Both rankings are
// total orders (heat, then page), so ranking k pages yields exactly the
// first k of the full swapLimit ranking. The rank size starts at the
// power of two above the app's last swap count (the full swapLimit
// before its first swap) and doubles only while every ranked pair
// swaps; the swaps are those of a full ranking. Each pass scans every
// candidate, so the hint is what keeps a steady epoch to one pass.
func (v *Vulcan) swapWithinQuota(sys *system.System, app *system.App, budget float64) {
	// Pair hottest candidates with coldest victims; swap only when the
	// candidate is clearly hotter (hysteresis against thrash — a fresh
	// streaming spike must not displace a steadily warm page).
	const swapMargin = 4.0
	k := swapLimit // no swap count yet: rank fully, in one pass
	if last, ok := v.swapRank[app]; ok {
		k = min(max(1<<bits.Len(uint(last)), minSwapRank), swapLimit)
	}
	var candidates []profile.PageHeat
	var victims []pagetable.VPage
	n := 0
	for {
		candidates = v.slowCandidates(app, k)
		if len(candidates) == 0 {
			app.Async.RunEpoch(budget, app.WriteProbability)
			return
		}
		victims = v.rank.ColdestFastPages(app, len(candidates))
		n = 0
		for n < len(candidates) && n < len(victims) {
			if candidates[n].Heat <= app.Profiler.Heat(victims[n])*swapMargin {
				break
			}
			n++
		}
		// n < k: a break, or a list shorter than k (the whole ranking),
		// stops the full ranking at the same pair.
		if n < k || k == swapLimit {
			break
		}
		k *= 2
	}
	v.swapRank[app] = n
	if n > 0 {
		if obs.Enabled(sys.Obs(), obs.EvDecision) {
			e := obs.E(obs.EvDecision, app.Name(), "policy", 0,
				obs.F("pairs", float64(n)))
			e.Note = "swap"
			sys.Obs().Event(e)
		}
		for _, vp := range victims[:n] {
			app.Async.EnqueueOne(migrate.Move{VP: vp, To: mem.TierSlow})
		}
		q := v.queues[app]
		q.Rebuild(app, candidates[:n])
		q.Drain(func(it QueueItem) bool {
			app.Async.EnqueueOne(migrate.Move{VP: it.VP, To: mem.TierFast})
			return true
		})
	}
	app.Async.RunEpoch(budget, app.WriteProbability)
}

// slowCandidates returns up to limit of app's hottest slow-resident
// pages with their heat and write fraction, read only for the pages
// kept. The slice is reused: it is valid until the next call.
func (v *Vulcan) slowCandidates(app *system.App, limit int) []profile.PageHeat {
	cands := v.cands[:0]
	for _, vp := range v.rank.SlowPagesWithHeat(app, limit) {
		cands = append(cands, profile.PageHeat{VP: vp, Heat: app.Profiler.Heat(vp), WriteFrac: app.Profiler.WriteFraction(vp)})
	}
	v.cands = cands
	return cands
}
