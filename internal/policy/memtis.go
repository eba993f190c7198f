package policy

import (
	"fmt"
	"math/bits"

	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
	"vulcan/internal/radix"
	"vulcan/internal/system"
)

// Memtis reimplements the policy core of MEMTIS (Lee et al., SOSP'23):
//
//   - PEBS-based access sampling feeds a hotness distribution.
//   - Pages are ranked by absolute (raw) access counts across all
//     co-located applications; the hottest pages up to fast-tier capacity
//     form the target hot set.
//   - A background migration thread (kmigrated) promotes hot pages and
//     demotes displaced cold ones within a CPU budget, off the critical
//     path.
//
// Because the ranking never normalizes for workload characteristics,
// high-intensity streaming workloads monopolize the fast tier — the
// cold-page dilemma of §2.2 reproduces directly from this logic.
type Memtis struct {
	// Per-epoch scratch, reused across epochs so the classification pass
	// allocates nothing in steady state: the ranking keys and their
	// radix buffers, the hot set of each app (indexed by App.Index),
	// and the promotion and victim picks.
	rank     RankBuf
	keys     radix.Buf[struct{}]
	hot      []PageSet
	selPromo radix.Select[GlobalPage]
	promote  []GlobalPage
	victims  []GlobalPage
}

// Memtis's representative tuning.
const (
	// memtisSampleRate is the PEBS sampling period over simulated
	// accesses.
	memtisSampleRate = 4
	// memtisHeatDecay is the per-epoch cooling factor; Memtis cools
	// slowly (count halving every cooling period), so warm footprints
	// linger.
	memtisHeatDecay float64 = 0.8
	// kmigratedBudget is background migration CPU per epoch, in
	// multiples of one core's epoch cycles (Memtis caps daemon overhead
	// at ~3%; one dedicated core at our scale).
	kmigratedBudget float64 = 1.0
	// maxMovesPerEpoch bounds promotion/demotion batches per epoch.
	maxMovesPerEpoch = 16384
	// headroom keeps a small fraction of the fast tier free to absorb
	// allocation bursts.
	headroom float64 = 0.01
)

// NewMemtis returns Memtis.
func NewMemtis() *Memtis { return &Memtis{} }

// Name implements system.Tiering.
func (m *Memtis) Name() string { return "memtis" }

// Mechanisms implements system.Tiering: stock kernel migration paths.
func (m *Memtis) Mechanisms() system.Mechanisms { return system.Mechanisms{} }

// NewProfiler implements system.ProfilerFactory: PEBS sampling.
func (m *Memtis) NewProfiler(app *system.App) profile.Profiler {
	return profile.NewPEBSWithDecay(memtisSampleRate, memtisHeatDecay, profilerSeed(app))
}

// AppStarted implements system.Tiering.
func (m *Memtis) AppStarted(*system.System, *system.App) {}

// EndEpoch implements system.Tiering.
func (m *Memtis) EndEpoch(sys *system.System) {
	m.classify(sys)

	// Record each app's hot/cold classification so Figure 1 can plot the
	// dilemma: pages in the global hot set vs the rest of the RSS.
	apps := sys.StartedApps()
	for _, a := range apps {
		hot := m.hot[a.Index].Len()
		sys.Recorder().Record(a.Name()+".memtis_hot", float64(hot))
		sys.Recorder().Record(a.Name()+".memtis_cold", float64(a.RSSMapped()-hot))
	}
	EnqueueVictims(m.victims)
	for _, p := range m.promote {
		p.App.Async.EnqueueOne(migrate.Move{VP: p.VP, To: mem.TierFast})
	}

	// kmigrated works the queues within its budget, demotions and
	// promotions interleaved per app (split budget by backlog share).
	totalBacklog := 0
	for _, a := range apps {
		totalBacklog += a.Async.Backlog()
	}
	if totalBacklog == 0 {
		return
	}
	budget := kmigratedBudget * sys.EpochCycles()
	for _, a := range apps {
		share := budget * float64(a.Async.Backlog()) / float64(totalBacklog)
		a.Async.RunEpoch(share, a.WriteProbability)
	}
}

// classify splits every profiled page into Memtis's hot and cold sets
// and picks this epoch's moves: m.hot holds each app's hot set, and
// m.promote and m.victims the promotions and demotions in queue order.
//
// The hot set is the globally hottest pages, by intensity-weighted heat
// then app index then page number, up to fast capacity less headroom.
// Pages below the resulting hotness threshold are classified cold: they
// are demoted even when the fast tier has room, exactly like Memtis's
// histogram-threshold split. A radix select finds the threshold key;
// only the slow-tier hot pages, the promotion candidates, are ordered.
//
// The pages are read 64 at a time, each page-table present word beside
// its heat word. That covers every profiled page because a profiler
// tracks only mapped pages (TestProfiledPagesAreMapped); the walk
// panics if it finds fewer than the profilers track.
func (m *Memtis) classify(sys *system.System) {
	apps := sys.StartedApps()
	target := int(float64(sys.Tiers().Fast().Capacity()) * (1 - headroom))

	n := 0
	for _, a := range apps {
		n += a.Profiler.Tracked()
	}
	major, minor := m.keys.Keys(n)
	i := 0
	for _, a := range apps {
		w := a.SampleWeight()
		a.Table.Words(func(base pagetable.VPage, present, _ uint64) {
			hw := a.Profiler.HeatWord(base)
			for live := present & hw.Live; live != 0; live &= live - 1 {
				j := bits.TrailingZeros64(live)
				major[i] = radix.FloatKeyDesc(hw.Heat(j) * w)
				minor[i] = rankMinor(a.Index, base|pagetable.VPage(j))
				i++
			}
		})
	}
	if i != n {
		panic(fmt.Sprintf("policy: memtis found %d of the %d profiled pages mapped", i, n))
	}
	cut := m.keys.Cut(major, minor, target)

	for len(m.hot) < len(sys.Apps()) {
		m.hot = append(m.hot, PageSet{})
	}
	for j := range m.hot {
		m.hot[j].Reset()
	}
	sel := &m.selPromo
	sel.Reset(maxMovesPerEpoch)
	hotInFast := 0
	i = 0
	for _, a := range apps {
		set := &m.hot[a.Index]
		a.Table.Words(func(base pagetable.VPage, present, fast uint64) {
			for live := present & a.Profiler.HeatWord(base).Live; live != 0; live &= live - 1 {
				maj, mnr := major[i], minor[i]
				i++
				if !cut.Admit(maj, mnr) {
					continue
				}
				j := bits.TrailingZeros64(live)
				vp := base | pagetable.VPage(j)
				set.Add(vp)
				if fast&(1<<j) != 0 {
					hotInFast++
				} else {
					sel.Offer(maj, mnr, GlobalPage{a, vp})
				}
			}
		})
	}
	m.promote = sel.Sorted()

	// Demote every fast page classified cold (not in the hot set),
	// coldest first — Memtis's ranking is system-wide and fairness-blind,
	// so a tenant whose pages rank low loses them regardless of who it
	// is.
	coldInFast := min(sys.Tiers().Fast().Used()-hotInFast, maxMovesPerEpoch)
	m.victims = m.rank.GlobalColdestFastPages(sys, coldInFast, m.hot)
}
