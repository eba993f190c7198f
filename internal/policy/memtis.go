package policy

import (
	"vulcan/internal/mem"
	"vulcan/internal/migrate"
	"vulcan/internal/pagetable"
	"vulcan/internal/profile"
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
	// allocates nothing in steady state. hotByApp's inner sets are
	// cleared, not reallocated; promote is truncated.
	rank     RankBuf
	hotByApp map[*system.App]map[pagetable.VPage]bool
	promote  []memtisPromo
}

// memtisPromo is one staged promotion in Memtis's per-epoch scratch.
type memtisPromo struct {
	app *system.App
	vp  pagetable.VPage
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
	ranking := m.rank.MergedRanking(sys)
	capacity := sys.Tiers().Fast().Capacity()
	target := int(float64(capacity) * (1 - headroom))

	// The hot set: globally hottest pages up to fast capacity. Pages
	// below the resulting hotness threshold are classified cold — they
	// are demoted even when the fast tier has room, exactly like
	// Memtis's histogram-threshold split.
	if m.hotByApp == nil {
		m.hotByApp = make(map[*system.App]map[pagetable.VPage]bool)
	}
	for _, set := range m.hotByApp {
		clear(set)
	}
	hotByApp := m.hotByApp
	promote := m.promote[:0]
	count := 0
	hotInFast := 0
	for _, gp := range ranking {
		if count >= target {
			break
		}
		count++
		set := hotByApp[gp.App]
		if set == nil {
			set = make(map[pagetable.VPage]bool)
			hotByApp[gp.App] = set
		}
		set[gp.VP] = true
		if p, ok := gp.App.Table.Lookup(gp.VP); ok {
			if p.Frame().Tier == mem.TierFast {
				hotInFast++
			} else if len(promote) < maxMovesPerEpoch {
				promote = append(promote, memtisPromo{gp.App, gp.VP})
			}
		}
	}
	m.promote = promote

	// Record each app's hot/cold classification so Figure 1 can plot the
	// dilemma: pages in the global hot set vs the rest of the RSS.
	for _, a := range sys.StartedApps() {
		hot := len(hotByApp[a])
		sys.Recorder().Record(a.Name()+".memtis_hot", float64(hot))
		sys.Recorder().Record(a.Name()+".memtis_cold", float64(a.RSSMapped()-hot))
	}

	// Demote every fast page classified cold (not in the hot set),
	// coldest first — Memtis's ranking is system-wide and fairness-blind,
	// so a tenant whose pages rank low loses them regardless of who it
	// is.
	coldInFast := sys.Tiers().Fast().Used() - hotInFast
	if coldInFast > maxMovesPerEpoch {
		coldInFast = maxMovesPerEpoch
	}
	if coldInFast > 0 {
		EnqueueVictims(m.rank.GlobalColdestFastPages(sys, coldInFast, hotByApp))
	}
	for _, p := range promote {
		p.app.Async.EnqueueOne(migrate.Move{VP: p.vp, To: mem.TierFast})
	}

	// kmigrated works the queues within its budget, demotions and
	// promotions interleaved per app (split budget by backlog share).
	apps := sys.StartedApps()
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
