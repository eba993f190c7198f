// Package migrate implements the page-migration mechanism of §2.1: the
// five-step pipeline (kernel trap, PTE lock/unmap, TLB shootdown, content
// copy, PTE remap) with per-phase cycle accounting, synchronous and
// asynchronous execution, transactional (Nomad-style) retry semantics for
// pages written mid-copy, and page shadowing for cheap demotion.
//
// The engine is policy-free: tiering systems (internal/policy and
// internal/core) decide *what* to move; this package models *how much it
// costs* to move it and mutates the page tables, TLBs and frame
// allocators accordingly.
package migrate

import (
	"fmt"
	"math/bits"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/obs/prof"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// Config parameterizes an Engine.
type Config struct {
	Cost  machine.CostModel
	Tiers *mem.Tiers
	Table *pagetable.Replicated

	// Cpus is the machine's core count, which drives baseline migration
	// preparation cost (Figure 2).
	Cpus int
	// ProcessThreads is the number of threads of the owning process; it
	// is the shootdown fan-out when targeted shootdowns are unavailable.
	ProcessThreads int

	// OptimizedPrep selects Vulcan's per-application LRU drain (§3.2)
	// instead of the kernel's global on_each_cpu synchronization.
	OptimizedPrep bool
	// TargetedShootdown uses per-thread page-table ownership (§3.4) to
	// IPI only the page's sharing threads instead of the whole process.
	TargetedShootdown bool
	// Shadowing retains slow-tier copies of promoted pages so that clean
	// pages demote by remap alone (§3.5, borrowed from Nomad).
	Shadowing bool

	// Invalidate, when non-nil, receives every (page, thread) TLB
	// invalidation so the system can evict entries from its per-thread
	// TLB models.
	Invalidate func(vp pagetable.VPage, threads []int)

	// PreMigrate, when non-nil, runs before each page enters the
	// migration path and returns extra cycles the page's preparation
	// costs (e.g. splitting a covering 2MiB huge mapping, §3.5).
	PreMigrate func(vp pagetable.VPage) float64

	// Inject, when non-nil, is the fault-injection hook (satisfied by
	// *fault.Injector): per-page transient migration failures and
	// delayed shootdown-IPI acknowledgments. Leave nil for a
	// well-behaved substrate; the nil path executes the exact
	// pre-chaos arithmetic.
	Inject Chaos
	// OnBusy, when non-nil, receives each move that failed transiently
	// (Busy outcome) so the owner can schedule a bounded retry.
	OnBusy func(mv Move)
	// OnIPIDelay, when non-nil, receives the shootdown targets whose
	// acknowledgment was delayed by an injected IPIDelay fault. The
	// slice is engine scratch: callees must not retain it.
	OnIPIDelay func(targets []int)

	// Obs receives migration and shootdown telemetry; nil disables
	// emission at zero cost. Owner labels the events with the owning
	// application's name.
	Obs   obs.Sink
	Owner string

	// Prof, when non-nil, receives each batch's phase breakdown on the
	// cost profiler's mechanism plane, keyed by the engine's current
	// execution context (sync / async / retry). nil — the default —
	// disables cost attribution at the price of one nil check per batch.
	Prof *prof.EngineAccounts
}

// Chaos is the fault-injection surface the engine consults
// (structurally satisfied by *fault.Injector; a local interface keeps
// the mechanism layer free of a fault-package dependency). Both methods
// must be pure in the simulation coordinates — the engine calls them
// once per page/batch and assumes replays answer identically.
type Chaos interface {
	// MigrationFails reports a transient per-page failure (pinned page,
	// -EBUSY) for virtual page vp in engine batch batchSeq.
	MigrationFails(app string, vp uint64, batchSeq uint64) bool
	// IPIDelayCycles returns extra acknowledgment cycles per shootdown
	// target for batch batchSeq (0 = no fault).
	IPIDelayCycles(app string, batchSeq uint64) float64
}

// Move asks for one page to be migrated to a destination tier.
type Move struct {
	VP pagetable.VPage
	To mem.TierID
}

// Outcome classifies what happened to one requested move.
type Outcome uint8

// Possible per-page outcomes.
const (
	Moved        Outcome = iota // migrated, content copied
	Remapped                    // migrated by shadow remap, no copy
	AlreadyThere                // page already resided in the target tier
	NotMapped                   // page has no translation
	NoFrame                     // destination tier exhausted
	Busy                        // transient failure (injected fault); retryable
)

func (o Outcome) String() string {
	switch o {
	case Moved:
		return "moved"
	case Remapped:
		return "remapped"
	case AlreadyThere:
		return "already-there"
	case NotMapped:
		return "not-mapped"
	case NoFrame:
		return "no-frame"
	case Busy:
		return "busy"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// Result reports one batch migration.
type Result struct {
	Breakdown machine.Breakdown
	// Outcomes aliases engine scratch: it is valid until the next
	// MigrateSync on the same engine and must not be retained across
	// batches.
	Outcomes []Outcome
	Moved    int // pages copied
	Remapped int // pages committed via shadow remap
	Failed   int // NotMapped + NoFrame
	Busy     int // transient injected failures (retryable)
	Targets  int // shootdown IPI fan-out used
}

// Cycles returns the batch's total cycle cost.
func (r Result) Cycles() float64 { return r.Breakdown.Total() }

// staged is one move that survived lookup, awaiting shootdown + copy +
// remap. old is the entry it had at staging, which stays mapped until
// the commit.
type staged struct {
	idx int
	vp  pagetable.VPage
	old pagetable.PTE
	to  mem.TierID
}

// Engine executes migrations against one process's address space.
type Engine struct {
	cfg     Config
	shadows *shadowStore

	// Per-batch scratch reused across MigrateSync calls (allocation
	// diet): the shootdown-scope union lives in a thread-id bitmap that
	// decodes in ascending order, replacing the per-call map + slice +
	// sort.Ints of the original implementation.
	scopeBits []uint64  //vulcan:nosnap per-batch scratch, reset at the top of MigrateSync
	scopeList []int     //vulcan:nosnap per-batch scratch, reset at the top of MigrateSync
	scopeBuf  []int     //vulcan:nosnap per-batch scratch, reset at the top of MigrateSync
	batch     []staged  //vulcan:nosnap per-batch scratch, reset at the top of MigrateSync
	outcomes  []Outcome //vulcan:nosnap per-batch scratch backing Result.Outcomes, overwritten by the next MigrateSync

	// batchSeq numbers MigrateSync batches; it is the fault-injection
	// coordinate for per-batch draws, so a page that failed transiently
	// in one batch draws fresh when retried in a later one.
	batchSeq uint64

	// ctx tags the current batch's execution context for cost
	// attribution; AsyncMigrator and Retrier set it around their
	// MigrateSync calls and restore ctxSync.
	ctx migCtx //vulcan:nosnap cost-attribution tag, always ctxSync at epoch boundaries
}

// migCtx names which execution context a MigrateSync batch belongs to
// for cost attribution: policy-synchronous (the default), the async
// migrator, or the bounded-retry queue.
type migCtx uint8

const (
	ctxSync migCtx = iota
	ctxAsync
	ctxRetry
)

// NewEngine validates cfg and builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Tiers == nil || cfg.Table == nil {
		panic("migrate: Config requires Tiers and Table")
	}
	if cfg.Cpus <= 0 {
		panic("migrate: Config.Cpus must be positive")
	}
	if cfg.ProcessThreads <= 0 {
		panic("migrate: Config.ProcessThreads must be positive")
	}
	scopeMax := cfg.ProcessThreads
	if scopeMax < pagetable.MaxThreads {
		scopeMax = pagetable.MaxThreads
	}
	return &Engine{
		cfg:       cfg,
		shadows:   newShadowStore(),
		scopeBits: make([]uint64, (scopeMax+63)/64),
	}
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Shadows exposes shadow-store statistics.
func (e *Engine) Shadows() ShadowStats { return e.shadows.stats() }

// addScope ors vp's targeted shootdown scope into the batch's scope
// bitmap.
func (e *Engine) addScope(vp pagetable.VPage) {
	e.scopeBuf = e.cfg.Table.AppendShootdownScope(e.scopeBuf[:0], vp)
	for _, tid := range e.scopeBuf {
		e.scopeBits[tid>>6] |= 1 << (tid & 63)
	}
}

// MigrateSync performs a synchronous batch migration of moves, returning
// the full cost breakdown. The caller decides whom the stall is charged
// to (the faulting thread for TPP-style promotions, a migration thread
// for background demotions).
//
// A batch names distinct pages. Each page stays mapped from staging to
// its commit, which unmaps and reinstalls it only when it really moves;
// a page named twice would be committed twice, and the second commit's
// unmap panics because the entry it finds is not the staged one.
//
//vulcan:hotpath
func (e *Engine) MigrateSync(moves []Move) Result {
	if cap(e.outcomes) < len(moves) {
		e.outcomes = make([]Outcome, len(moves)) //vulcan:allowalloc grow-once scratch, amortized across batches
	}
	e.outcomes = e.outcomes[:len(moves)]
	clear(e.outcomes)
	res := Result{Outcomes: e.outcomes}
	e.batchSeq++

	// Phase 0/1: preparation + kernel trap happen once per batch. The
	// scope bitmap and staging buffer are engine scratch, cleared here
	// and refilled, so a steady-state batch allocates only Outcomes.
	for i := range e.scopeBits {
		e.scopeBits[i] = 0
	}
	e.batch = e.batch[:0]
	attempted := 0

	// Lock each page, collecting shootdown scope. The simulated unmap is
	// charged here, but the entry stays in place until commitPage: no
	// step in between reads another staged page's entry, and a move
	// that finds no frame then leaves its entry as it was.
	splitCycles := 0.0
	for i, mv := range moves {
		pte, ok := e.cfg.Table.Lookup(mv.VP)
		if !ok {
			res.Outcomes[i] = NotMapped
			res.Failed++
			continue
		}
		if pte.Frame().Tier == mv.To {
			res.Outcomes[i] = AlreadyThere
			continue
		}
		if e.cfg.Inject != nil && e.cfg.Inject.MigrationFails(e.cfg.Owner, uint64(mv.VP), e.batchSeq) {
			// Transient failure (pinned page): the kernel took the PTE
			// lock, saw the pin, and backed off — the page stays mapped
			// where it is and only the lock round-trip is charged.
			res.Outcomes[i] = Busy
			res.Busy++
			if e.cfg.OnBusy != nil {
				e.cfg.OnBusy(mv)
			}
			continue
		}
		if e.cfg.PreMigrate != nil {
			splitCycles += e.cfg.PreMigrate(mv.VP)
		}
		attempted++
		if e.cfg.TargetedShootdown {
			e.addScope(mv.VP)
		}
		e.batch = append(e.batch, staged{idx: i, vp: mv.VP, old: pte, to: mv.To})
	}

	// A non-targeted shootdown reaches every process thread, whatever
	// the pages: one full mask for the batch.
	if !e.cfg.TargetedShootdown && attempted > 0 {
		for tid := 0; tid < e.cfg.ProcessThreads; tid++ {
			e.scopeBits[tid>>6] |= 1 << (tid & 63)
		}
	}

	// TLB shootdown over the union scope. Decoding the bitmap yields
	// ascending thread order for free, so the IPI sequence (and any
	// per-target accounting) replays identically without a sort.
	e.scopeList = e.scopeList[:0]
	for w, word := range e.scopeBits {
		for ; word != 0; word &= word - 1 {
			e.scopeList = append(e.scopeList, w<<6+bits.TrailingZeros64(word))
		}
	}
	if e.cfg.Invalidate != nil {
		for _, s := range e.batch {
			e.cfg.Invalidate(s.vp, e.scopeList)
		}
	}
	res.Targets = len(e.scopeList)

	// Copy + remap each staged page.
	copied := 0
	for _, s := range e.batch {
		outcome := e.commitPage(s.vp, s.old, s.to)
		res.Outcomes[s.idx] = outcome
		switch outcome {
		case Moved:
			copied++
			res.Moved++
		case Remapped:
			res.Remapped++
		case NoFrame:
			res.Failed++
		}
	}

	res.Breakdown = machine.Breakdown{
		Pages: attempted,
		Prep:  e.cfg.Cost.PrepCycles(e.cfg.Cpus, e.cfg.OptimizedPrep),
		Trap:  e.cfg.Cost.TrapCycles,
		// Busy pages took the PTE lock and backed off, so they charge
		// the lock/unmap round-trip but no shootdown, copy or remap.
		// With chaos off res.Busy is always 0 and the sum is the exact
		// pre-fault expression.
		Unmap: float64(attempted+res.Busy) * e.cfg.Cost.LockUnmapPerPage,
		TLB:   e.cfg.Cost.ShootdownCycles(attempted, res.Targets),
		Copy:  e.cfg.Cost.CopyCycles(copied),
		Remap: float64(attempted) * e.cfg.Cost.RemapPerPage,
		Split: splitCycles,
	}
	ipiExtra := 0.0
	if e.cfg.Inject != nil && attempted > 0 {
		// A delayed-IPI fault stretches every target's acknowledgment.
		if d := e.cfg.Inject.IPIDelayCycles(e.cfg.Owner, e.batchSeq); d > 0 {
			ipiExtra = d * float64(res.Targets)
			res.Breakdown.TLB += ipiExtra
			if e.cfg.OnIPIDelay != nil {
				e.cfg.OnIPIDelay(e.scopeList)
			}
		}
	}
	if attempted == 0 && res.Busy == 0 {
		// Nothing actually entered the kernel migration path: no cost.
		res.Breakdown = machine.Breakdown{}
		ipiExtra = 0
	}
	e.chargeProf(res, attempted, ipiExtra)
	e.emitSync(res, attempted)
	return res
}

// chargeProf posts one batch's phase breakdown to the cost profiler's
// mechanism plane under the current execution context. The TLB phase
// splits into the base shootdown cost (tlb/shootdown, counted per IPI
// target) and any injected acknowledgment delay (fault/ipi-delay); the
// charges sum exactly to Breakdown.Total().
//
//vulcan:hotpath
func (e *Engine) chargeProf(res Result, attempted int, ipiExtra float64) {
	pa := e.cfg.Prof
	if pa == nil || (attempted == 0 && res.Busy == 0) {
		return
	}
	m := &pa.Sync
	switch e.ctx {
	case ctxAsync:
		m = &pa.Async
	case ctxRetry:
		m = &pa.Retry
	}
	bd := res.Breakdown
	m.Prep.Charge(bd.Prep)
	m.Trap.Charge(bd.Trap)
	m.Unmap.ChargeN(bd.Unmap, uint64(attempted+res.Busy))
	m.Copy.ChargeN(bd.Copy, uint64(res.Moved))
	m.Remap.ChargeN(bd.Remap, uint64(attempted))
	if bd.Split > 0 {
		m.Split.Charge(bd.Split)
	}
	pa.Shootdown.ChargeN(bd.TLB-ipiExtra, uint64(res.Targets))
	if ipiExtra > 0 {
		pa.IPIDelay.ChargeN(ipiExtra, uint64(res.Targets))
	}
}

// emitSync publishes one batch's telemetry: the shootdown (scope and
// cost) and the five-phase cycle breakdown.
func (e *Engine) emitSync(res Result, attempted int) {
	if attempted == 0 && res.Busy == 0 {
		return
	}
	if attempted > 0 && obs.Enabled(e.cfg.Obs, obs.EvShootdown) {
		e.cfg.Obs.Event(obs.E(obs.EvShootdown, e.cfg.Owner, "migrate",
			sim.CyclesToDuration(res.Breakdown.TLB),
			obs.F("pages", float64(attempted)),
			obs.F("targets", float64(res.Targets)),
			obs.F("cycles", res.Breakdown.TLB)))
	}
	if obs.Enabled(e.cfg.Obs, obs.EvMigrateSync) {
		sh := e.shadows.stats()
		ev := obs.E(obs.EvMigrateSync, e.cfg.Owner, "migrate",
			sim.CyclesToDuration(res.Breakdown.Total()),
			obs.F("pages", float64(attempted)),
			obs.F("moved", float64(res.Moved)),
			obs.F("remapped", float64(res.Remapped)),
			obs.F("failed", float64(res.Failed)),
			obs.F("prep_cycles", res.Breakdown.Prep),
			obs.F("trap_cycles", res.Breakdown.Trap),
			obs.F("unmap_cycles", res.Breakdown.Unmap),
			obs.F("tlb_cycles", res.Breakdown.TLB),
			obs.F("copy_cycles", res.Breakdown.Copy),
			obs.F("remap_cycles", res.Breakdown.Remap),
			obs.F("split_cycles", res.Breakdown.Split),
			obs.F("shadows_live", float64(sh.Live)))
		if res.Busy > 0 {
			// Appended (rather than unconditional) so chaos-off traces
			// stay byte-identical to the pre-fault exporter output.
			ev.Fields = append(ev.Fields, obs.F("busy", float64(res.Busy))) //vulcan:allowalloc chaos-path only, behind obs.Enabled; the nil-sink steady state never gets here
		}
		e.cfg.Obs.Event(ev)
	}
}

// commitPage moves one staged page's content and remaps its PTE. Every
// frame is taken before the entry is touched, so a page whose
// destination is exhausted keeps its entry as it was and gets only the
// leaf link that reinstalling the entry would have made.
func (e *Engine) commitPage(vp pagetable.VPage, old pagetable.PTE, to mem.TierID) Outcome {
	srcFrame := old.Frame()

	// Shadow fast-path: demoting a clean page whose slow-tier shadow is
	// intact needs no copy — just remap to the shadow (Nomad §3.5).
	if e.cfg.Shadowing && to == mem.TierSlow {
		if !old.Dirty() {
			if shadow, ok := e.shadows.take(vp); ok {
				e.remap(vp, old, old.WithFrame(shadow).WithAccessed(false))
				e.cfg.Tiers.Free(srcFrame)
				return Remapped
			}
		} else if stale, ok := e.shadows.drop(vp); ok {
			// The page was written after promotion: its shadow is stale
			// and the demotion must copy; release the shadow frame.
			e.cfg.Tiers.Free(stale)
		}
	}

	dst, ok := e.cfg.Tiers.Alloc(to)
	if !ok {
		// Destination exhausted: the mapping stays where it is.
		e.cfg.Table.Link(ownerThread(old), vp)
		return NoFrame
	}

	e.remap(vp, old, old.WithFrame(dst).WithAccessed(false).WithDirty(false))

	if e.cfg.Shadowing && to == mem.TierFast && srcFrame.Tier == mem.TierSlow {
		// Keep the slow copy as a shadow instead of freeing it; a stale
		// prior shadow (from an earlier promotion cycle) is released.
		if prev, ok := e.shadows.drop(vp); ok {
			e.cfg.Tiers.Free(prev)
		}
		e.shadows.put(vp, srcFrame)
	} else {
		e.cfg.Tiers.Free(srcFrame)
	}
	return Moved
}

// remap replaces vp's staged entry old with the exact PTE p — owner,
// accessed and dirty bits included. The entry must still be old: only
// a page named twice in one batch can have changed since staging.
func (e *Engine) remap(vp pagetable.VPage, old, p pagetable.PTE) {
	if got, ok := e.cfg.Table.Unmap(vp); !ok || got != old {
		panic(fmt.Sprintf("migrate: page %#x changed between staging and commit (a batch must name distinct pages)", uint64(vp)))
	}
	if err := e.cfg.Table.Install(ownerThread(p), vp, p); err != nil {
		panic(fmt.Sprintf("migrate: remap of %#x failed: %v", uint64(vp), err))
	}
}

// ownerThread is the thread a remap links p's leaf for: its owner, or
// thread 0 for a shared page.
func ownerThread(p pagetable.PTE) int {
	if owner := p.Owner(); owner != pagetable.OwnerShared {
		return int(owner)
	}
	return 0
}

// InvalidateShadow drops vp's shadow copy (called when the page is
// written after promotion, making the slow-tier copy stale). The freed
// frame returns to the slow tier.
func (e *Engine) InvalidateShadow(vp pagetable.VPage) {
	if f, ok := e.shadows.drop(vp); ok {
		e.cfg.Tiers.Free(f)
	}
}

// EachShadow calls fn with every shadow copy's page and frame, in
// ascending page order.
func (e *Engine) EachShadow(fn func(vp pagetable.VPage, f mem.Frame)) {
	e.shadows.frames.ForEach(func(vp, w uint64) { fn(pagetable.VPage(vp), unpackFrame(w)) })
}

// HasShadow reports whether vp currently holds a shadow copy.
func (e *Engine) HasShadow(vp pagetable.VPage) bool { return e.shadows.has(vp) }

// DropAllShadows releases every shadow frame (used when reconfiguring).
func (e *Engine) DropAllShadows() {
	for _, f := range e.shadows.drain() {
		e.cfg.Tiers.Free(f)
	}
}
