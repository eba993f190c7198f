// Package prof is the simulator's cycle-attribution profiler: a
// deterministic, clock-keyed hierarchical cost accountant that answers
// "where do simulated cycles go", per subsystem path, per application
// and per tier.
//
// Two bookkeeping planes share one account tree:
//
//   - The use plane decomposes each application's per-epoch CPU budget
//     (epoch cycles × threads): compute, LLC-served accesses, memory
//     accesses by tier, per-page events (demand faults, leaf links,
//     profiling overhead charged in-epoch), migration stall consumed
//     from the budget, and idle slack. Its accounts sum to the budget.
//   - The mechanism plane itemizes what the migration and profiling
//     machinery did: the five-phase migration breakdown per execution
//     context (sync / async / retry), TLB shootdowns, profiler epoch
//     overhead, and injected fault penalties. Accounts created with
//     mech=true join this plane.
//
// Synchronous-migration cycles appear in both planes by design: once as
// the stalled application's system/stall row (who paid) and once
// itemized by phase in the mechanism plane (what the cycles bought).
// The profile total is budgets + mechanism work, so the two plane sums
// reconcile exactly; any residual is exported as "unattributed" and
// pinned below 1% by the figures-level coverage test.
//
// Everything here honors the determinism contract (DESIGN.md §7):
// timestamps come from the bound sim.Clock, exports sort account
// identities, and charging is pure float arithmetic — a disabled
// profiler is a nil pointer whose methods no-op without allocating.
package prof

import (
	"sort"

	"vulcan/internal/sim"
)

// Account accumulates cycles and an event count for one (subsystem
// path, app, tier) identity. Accounts are resolved once at construction
// time (system admission, engine setup) so hot paths only add floats.
// All methods are nil-receiver safe: a nil *Account is the disabled
// profiler's universal no-op handle.
type Account struct {
	path string // slash-separated subsystem path, e.g. "migrate/sync/copy"
	app  string // owning application ("" = machine scope)
	tier string // memory tier ("fast"/"slow", "" = tier-less)
	mech bool   // mechanism plane (adds to the profile total)

	cycles float64
	count  uint64

	// Flushed watermarks for per-epoch delta export.
	flushedCycles float64
	flushedCount  uint64
}

// Charge adds cycles and one event to the account. nil-safe.
//
//vulcan:hotpath
func (a *Account) Charge(cycles float64) {
	if a == nil {
		return
	}
	a.cycles += cycles
	a.count++
}

// ChargeN adds cycles and events events to the account. nil-safe.
//
//vulcan:hotpath
func (a *Account) ChargeN(cycles float64, events uint64) {
	if a == nil {
		return
	}
	a.cycles += cycles
	a.count += events
}

// Path returns the account's subsystem path.
func (a *Account) Path() string { return a.path }

// App returns the owning application ("" = machine scope).
func (a *Account) App() string { return a.app }

// Tier returns the tier label ("" = tier-less).
func (a *Account) Tier() string { return a.tier }

// Cycles returns the cumulative cycle total.
func (a *Account) Cycles() float64 {
	if a == nil {
		return 0
	}
	return a.cycles
}

// Count returns the cumulative event count.
func (a *Account) Count() uint64 {
	if a == nil {
		return 0
	}
	return a.count
}

// Row is one per-epoch cost delta: how many cycles an account accrued
// during one epoch. The pseudo-paths "total" and "unattributed" close
// each epoch's books.
type Row struct {
	Epoch  int
	T      sim.Time
	Path   string
	App    string
	Tier   string
	Cycles float64
	Count  uint64
}

// TotalPath and UnattributedPath are the pseudo-account paths of the
// per-epoch closing rows.
const (
	TotalPath        = "total"
	UnattributedPath = "unattributed"
)

// Profiler is the cost-accounting root: an account registry, the
// application budget ledger, and the per-epoch flushed delta rows the
// CSV exporter reads. The zero value is not
// usable; call New. A nil *Profiler is the disabled profiler — every
// method no-ops (or returns a nil Account) without allocating.
type Profiler struct {
	clock    *sim.Clock
	index    map[string]*Account
	accounts []*Account // sorted by (path, app, tier)

	budget        float64 // Σ per-app epoch budgets
	flushedBudget float64

	rows []Row
}

// New returns an empty profiler.
func New() *Profiler {
	return &Profiler{index: make(map[string]*Account)}
}

// BindClock attaches the simulation clock; flush rows and exports stamp
// simulated time from it. nil-safe.
func (p *Profiler) BindClock(c *sim.Clock) {
	if p == nil {
		return
	}
	p.clock = c
}

// now returns the bound clock's time (0 unbound).
func (p *Profiler) now() sim.Time {
	if p.clock != nil {
		return p.clock.Now()
	}
	return 0
}

// Account returns (creating if needed) the account for the given
// identity. mech=true puts it on the mechanism plane, adding its
// cycles to the profile total. A nil profiler returns a nil account,
// whose charge methods no-op — call sites never branch. The shape
// arguments (mech) apply on first use.
func (p *Profiler) Account(path, app, tier string, mech bool) *Account {
	if p == nil {
		return nil
	}
	key := path + "\x00" + app + "\x00" + tier
	if a, ok := p.index[key]; ok {
		return a
	}
	a := &Account{path: path, app: app, tier: tier, mech: mech}
	p.index[key] = a
	// Insert in sorted position so flush and export order never depends
	// on creation order. Account creation is setup-path only.
	i := sort.Search(len(p.accounts), func(i int) bool { return !accountLess(p.accounts[i], a) })
	p.accounts = append(p.accounts, nil)
	copy(p.accounts[i+1:], p.accounts[i:])
	p.accounts[i] = a
	return a
}

// accountLess orders accounts by (path, app, tier).
func accountLess(a, b *Account) bool {
	if a.path != b.path {
		return a.path < b.path
	}
	if a.app != b.app {
		return a.app < b.app
	}
	return a.tier < b.tier
}

// AddBudget credits an application's epoch CPU budget (epoch cycles ×
// threads) to the profile total. nil-safe.
//
//vulcan:hotpath
func (p *Profiler) AddBudget(cycles float64) {
	if p == nil {
		return
	}
	p.budget += cycles
}

// FlushEpoch closes one epoch's books: every account's delta since the
// last flush becomes a Row, followed by the epoch's "total" row (budget
// delta + mechanism-plane delta) and "unattributed" residual. The
// system calls it at each epoch boundary before the clock advances, so
// rows carry the epoch's start time. nil-safe.
func (p *Profiler) FlushEpoch(epoch int) {
	if p == nil {
		return
	}
	t := p.now()
	var attributed, mech float64
	for _, a := range p.accounts {
		dc := a.cycles - a.flushedCycles
		dn := a.count - a.flushedCount
		if dc != 0 || dn != 0 {
			p.rows = append(p.rows, Row{
				Epoch: epoch, T: t,
				Path: a.path, App: a.app, Tier: a.tier,
				Cycles: dc, Count: dn,
			})
			a.flushedCycles = a.cycles
			a.flushedCount = a.count
		}
		attributed += dc
		if a.mech {
			mech += dc
		}
	}
	db := p.budget - p.flushedBudget
	p.flushedBudget = p.budget
	total := db + mech
	p.rows = append(p.rows,
		Row{Epoch: epoch, T: t, Path: TotalPath, Cycles: total},
		Row{Epoch: epoch, T: t, Path: UnattributedPath, Cycles: total - attributed},
	)
}

// Rows returns the flushed per-epoch delta rows in export order.
func (p *Profiler) Rows() []Row {
	if p == nil {
		return nil
	}
	return p.rows
}

// Accounts returns every account in (path, app, tier) order.
func (p *Profiler) Accounts() []*Account {
	if p == nil {
		return nil
	}
	return p.accounts
}

// Totals returns the profile's cumulative reconciliation: total is the
// credited budgets plus all mechanism-plane cycles, attributed is the
// sum over every account, and unattributed is their difference (the
// residual the coverage test pins below 1%).
func (p *Profiler) Totals() (total, attributed, unattributed float64) {
	if p == nil {
		return 0, 0, 0
	}
	var mech float64
	for _, a := range p.accounts {
		attributed += a.cycles
		if a.mech {
			mech += a.cycles
		}
	}
	total = p.budget + mech
	return total, attributed, total - attributed
}

// MigrationAccounts itemizes one migration execution context's phase
// accounts, mirroring machine.Breakdown.
type MigrationAccounts struct {
	Prep  *Account
	Trap  *Account
	Unmap *Account
	Copy  *Account
	Remap *Account
	Split *Account
}

// EngineAccounts is the migration engine's resolved account set: the
// five-phase breakdown per execution context, plus the shootdown and
// injected-IPI-delay accounts the TLB phase routes to.
type EngineAccounts struct {
	Sync      MigrationAccounts
	Async     MigrationAccounts
	Retry     MigrationAccounts
	Shootdown *Account // tlb/shootdown: the batch TLB coherence cost
	IPIDelay  *Account // fault/ipi-delay: injected acknowledgment delay
}

// NewEngineAccounts resolves one application's migration account set.
// A nil profiler yields nil, which the engine treats as disabled.
func NewEngineAccounts(p *Profiler, app string) *EngineAccounts {
	if p == nil {
		return nil
	}
	phases := func(ctx string) MigrationAccounts {
		return MigrationAccounts{
			Prep:  p.Account("migrate/"+ctx+"/prep", app, "", true),
			Trap:  p.Account("migrate/"+ctx+"/trap", app, "", true),
			Unmap: p.Account("migrate/"+ctx+"/unmap", app, "", true),
			Copy:  p.Account("migrate/"+ctx+"/copy", app, "", true),
			Remap: p.Account("migrate/"+ctx+"/remap", app, "", true),
			Split: p.Account("migrate/"+ctx+"/split", app, "", true),
		}
	}
	return &EngineAccounts{
		Sync:      phases("sync"),
		Async:     phases("async"),
		Retry:     phases("retry"),
		Shootdown: p.Account("tlb/shootdown", app, "", true),
		IPIDelay:  p.Account("fault/ipi-delay", app, "", true),
	}
}
