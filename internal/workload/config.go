package workload

import (
	"fmt"

	"vulcan/internal/mem"
	"vulcan/internal/sim"
)

// Class labels a workload's service objective.
type Class uint8

// LC workloads are latency-critical (online services); BE workloads are
// best-effort (batch/throughput). The paper's fairness mechanism treats
// them asymmetrically (Algorithm 1 serves LC borrowers first).
const (
	LC Class = iota
	BE
)

// String returns "LC" or "BE".
func (c Class) String() string {
	if c == LC {
		return "LC"
	}
	return "BE"
}

// GenFactory builds a generator over a region of pages.
type GenFactory func(pages int, rng *sim.RNG) Generator

// AppConfig describes one co-located application.
type AppConfig struct {
	Name    string
	Class   Class
	Threads int
	// RSSPages is the resident set size in 4KiB pages (already scaled).
	RSSPages int
	// SharedFraction of the RSS is shared by all threads; the remainder
	// is partitioned into per-thread private slices. This drives the
	// private/shared page classification of §3.4–3.5.
	SharedFraction float64
	// ComputeNs is the fixed non-memory work per operation; it sets the
	// workload's memory-access intensity.
	ComputeNs sim.Duration
	// OpsPerSec, when nonzero, makes the workload open-loop: operations
	// arrive at this total rate (across threads) instead of being issued
	// as fast as the CPU allows. Latency-critical services are open-loop
	// — their per-page access frequency is set by request rate, not by
	// memory bandwidth, which is precisely why their hot pages look
	// "cold" next to streaming best-effort workloads (Observation #1).
	OpsPerSec float64
	// NewGen builds the access-pattern generator used for both the shared
	// region and each private slice.
	NewGen GenFactory
	// StartAt delays the app's arrival (Figure 9's staggered starts).
	StartAt sim.Time
	// PremapFraction of the RSS is faulted in at admission (default 1.0
	// = fully warmed, as the paper's measured phases are). Lower values
	// leave the rest to demand faulting as the access stream touches it,
	// so the resident set grows over time — the "RSS changes" dynamic of
	// Figure 9(c).
	PremapFraction float64
}

// Check reports the first malformed field of c. Configs that arrive from
// outside the program (scenario files, control-API admits) are checked
// with it so a bad value surfaces as an error, not a crash.
func (c AppConfig) Check() error {
	switch {
	case c.Name == "":
		return fmt.Errorf("workload: app without a name")
	case !validName(c.Name):
		return fmt.Errorf("workload: app name %q is not 1-%d bytes of [A-Za-z0-9._~-]", c.Name, MaxNameLen)
	case c.Threads <= 0:
		return fmt.Errorf("workload: app %s with %d threads", c.Name, c.Threads)
	case c.RSSPages <= 0:
		return fmt.Errorf("workload: app %s with RSS %d", c.Name, c.RSSPages)
	case c.SharedFraction < 0 || c.SharedFraction > 1:
		return fmt.Errorf("workload: app %s shared fraction %v", c.Name, c.SharedFraction)
	case c.ComputeNs < 0:
		return fmt.Errorf("workload: app %s negative compute", c.Name)
	case c.OpsPerSec < 0:
		return fmt.Errorf("workload: app %s negative ops rate", c.Name)
	case c.PremapFraction < 0 || c.PremapFraction > 1:
		return fmt.Errorf("workload: app %s premap fraction %v", c.Name, c.PremapFraction)
	case c.NewGen == nil:
		return fmt.Errorf("workload: app %s without a generator", c.Name)
	}
	// The generator's kind, not the region size, decides how small a
	// region it can draw from, so a one-page probe names it. (Every
	// one-page sim.Zipf shares one cached table, so probes add none.)
	need := minPages(c.NewGen(1, sim.NewRNG(1)))
	shared, private := c.regions()
	if shared < need || (private > 0 && private < need) {
		return fmt.Errorf("workload: app %s regions too small for its generator: %d-page shared, %d-page private, needs %d",
			c.Name, shared, private, need)
	}
	return nil
}

// MaxNameLen bounds an app name's length in bytes.
const MaxNameLen = 64

// validName reports whether name is 1-64 bytes of [A-Za-z0-9._~-]. An
// app name becomes a metric label value, a metrics-CSV field and a
// trace scope, so it may hold none of the separators those formats use.
// ('~' is admitted for the fleet's re-placement instances, job~N.)
func validName(name string) bool {
	if len(name) == 0 || len(name) > MaxNameLen {
		return false
	}
	for i := 0; i < len(name); i++ {
		switch c := name[i]; {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9', c == '.', c == '_', c == '~', c == '-':
		default:
			return false
		}
	}
	return true
}

// regions returns the sizes BuildThreads gives c's shared region and
// each thread's private slice (0 when the threads share everything).
func (c AppConfig) regions() (shared, private int) {
	shared = int(float64(c.RSSPages) * c.SharedFraction)
	if shared < 1 {
		shared = 1
	}
	return shared, (c.RSSPages - shared) / c.Threads
}

// Validate panics on malformed configs built inside the program, where a
// returned error would just move the crash to the first epoch.
func (c AppConfig) Validate() {
	if err := c.Check(); err != nil {
		panic(err.Error())
	}
}

// Thread draws page references for one application thread: mostly from
// the shared region, sometimes from its private slice, mapped into the
// app's flat page space ([shared][private0][private1]...).
type Thread struct {
	ID          int
	shared      Generator
	private     Generator
	sharedProb  sim.Prob
	privateBase int
	rng         *sim.RNG
}

// Next returns the next reference in app page space.
func (t *Thread) Next() Ref {
	if t.private == nil || t.rng.Hit(t.sharedProb) {
		return t.shared.Next()
	}
	r := t.private.Next()
	r.Page += t.privateBase
	return r
}

// BuildThreads constructs the per-thread access streams for cfg. Each
// thread gets independent RNG streams forked from rng.
func BuildThreads(cfg AppConfig, rng *sim.RNG) []*Thread {
	cfg.Validate()
	sharedPages, privPer := cfg.regions()
	// One backing array each for the threads and their RNG streams; the
	// per-thread fork order (shared, thread, private) is the determinism
	// contract and must not change.
	backing := make([]Thread, cfg.Threads)
	rngs := make([]sim.RNG, 3*cfg.Threads)
	threads := make([]*Thread, cfg.Threads)
	forked := 0
	fork := func() *sim.RNG {
		child := &rngs[forked]
		forked++
		rng.ForkInto(child)
		return child
	}
	for i := range backing {
		t := &backing[i]
		t.ID = i
		t.shared = cfg.NewGen(sharedPages, fork())
		t.sharedProb = sim.NewProb(cfg.SharedFraction)
		t.rng = fork()
		if privPer > 0 {
			t.private = cfg.NewGen(privPer, fork())
			t.privateBase = sharedPages + i*privPer
		} else {
			t.sharedProb = sim.ProbOne
		}
		threads[i] = t
	}
	return threads
}

// ScaledPagesForGB converts a paper-scale footprint in GiB to simulated
// pages at the repository's 1/mem.Scale capacity scale.
func ScaledPagesForGB(gb int) int {
	return gb << 30 / mem.PageSize / mem.Scale
}

// The Table 2 applications, at 1/64 scale. Intensities (ComputeNs) are
// calibrated so the per-page miss rates reproduce Figure 1's dynamics:
// Liblinear's streaming passes dominate miss-based profiles, while
// Memcached's cache-friendly hot set under-registers.

// MemcachedConfig returns the LC key-value workload (51 GB RSS): an
// open-loop service whose request rate — not the CPU — bounds its memory
// traffic, leaving its hot pages with modest absolute access counts.
func MemcachedConfig() AppConfig {
	return AppConfig{
		Name:           "memcached",
		Class:          LC,
		Threads:        8,
		RSSPages:       ScaledPagesForGB(51),
		SharedFraction: 0.90,
		ComputeNs:      100 * sim.Nanosecond,
		OpsPerSec:      1.2e6,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			return NewKeyValue(pages, rng)
		},
	}
}

// PageRankConfig returns the BE graph workload (42 GB RSS), closed-loop.
func PageRankConfig() AppConfig {
	return AppConfig{
		Name:           "pagerank",
		Class:          BE,
		Threads:        8,
		RSSPages:       ScaledPagesForGB(42),
		SharedFraction: 0.85,
		ComputeNs:      80 * sim.Nanosecond,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			return NewGraphWalk(pages, rng)
		},
	}
}

// LiblinearConfig returns the BE linear-classification workload (69 GB
// RSS, KDD12-scale dataset): closed-loop streaming at memory speed, the
// fast-tier monopolizer of Figure 1.
func LiblinearConfig() AppConfig {
	return AppConfig{
		Name:           "liblinear",
		Class:          BE,
		Threads:        8,
		RSSPages:       ScaledPagesForGB(69),
		SharedFraction: 0.85,
		ComputeNs:      25 * sim.Nanosecond,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			return NewMLTrain(pages, rng)
		},
	}
}

// NomadMicroConfig returns a Figure 8 microbenchmark app with the given
// working set and resident set in pages and read/write mix.
func NomadMicroConfig(name string, rssPages, wssPages int, writeFrac float64) AppConfig {
	return AppConfig{
		Name:           name,
		Class:          BE,
		Threads:        8,
		RSSPages:       rssPages,
		SharedFraction: 1.0, // the microbenchmark shares one region
		ComputeNs:      60 * sim.Nanosecond,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			wss := wssPages
			if wss > pages {
				wss = pages
			}
			return NewNomadMicro(pages, wss, writeFrac, rng)
		},
	}
}
