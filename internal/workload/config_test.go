package workload

import (
	"strings"
	"testing"

	"vulcan/internal/sim"
)

func TestBuildThreadsLayout(t *testing.T) {
	cfg := AppConfig{
		Name: "test", Class: BE, Threads: 4, RSSPages: 1000,
		SharedFraction: 0.5, ComputeNs: 100,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			return NewUniform(pages, 0.1, 0, rng)
		},
	}
	threads := BuildThreads(cfg, sim.NewRNG(1))
	if len(threads) != 4 {
		t.Fatalf("threads = %d", len(threads))
	}
	// Shared region is [0, 500); thread i private is [500+125i, 625+125i).
	for _, th := range threads {
		sawShared, sawPrivate := false, false
		for i := 0; i < 10_000; i++ {
			r := th.Next()
			switch {
			case r.Page < 500:
				sawShared = true
			case r.Page >= 500+th.ID*125 && r.Page < 500+(th.ID+1)*125:
				sawPrivate = true
			default:
				t.Fatalf("thread %d accessed page %d outside its regions", th.ID, r.Page)
			}
		}
		if !sawShared || !sawPrivate {
			t.Fatalf("thread %d: shared=%t private=%t", th.ID, sawShared, sawPrivate)
		}
	}
}

func TestBuildThreadsFullyShared(t *testing.T) {
	cfg := AppConfig{
		Name: "shared", Class: LC, Threads: 2, RSSPages: 100,
		SharedFraction: 1.0, ComputeNs: 0,
		NewGen: func(pages int, rng *sim.RNG) Generator {
			return NewUniform(pages, 0, 0, rng)
		},
	}
	threads := BuildThreads(cfg, sim.NewRNG(2))
	for _, th := range threads {
		for i := 0; i < 1000; i++ {
			if p := th.Next().Page; p >= 100 {
				t.Fatalf("page %d beyond RSS", p)
			}
		}
	}
}

func TestBuildThreadsIndependentStreams(t *testing.T) {
	cfg := MemcachedConfig()
	threads := BuildThreads(cfg, sim.NewRNG(3))
	a, b := threads[0], threads[1]
	same := 0
	for i := 0; i < 100; i++ {
		if a.Next().Page == b.Next().Page {
			same++
		}
	}
	if same > 50 {
		t.Fatalf("threads correlated: %d/100 identical draws", same)
	}
}

func TestValidatePanics(t *testing.T) {
	gen := func(pages int, rng *sim.RNG) Generator { return NewUniform(pages, 0, 0, rng) }
	base := AppConfig{Name: "x", Threads: 1, RSSPages: 10, NewGen: gen}
	mutations := map[string]func(*AppConfig){
		"no name":     func(c *AppConfig) { c.Name = "" },
		"no threads":  func(c *AppConfig) { c.Threads = 0 },
		"no rss":      func(c *AppConfig) { c.RSSPages = 0 },
		"bad shared":  func(c *AppConfig) { c.SharedFraction = 1.5 },
		"neg compute": func(c *AppConfig) { c.ComputeNs = -1 },
		"no gen":      func(c *AppConfig) { c.NewGen = nil },
	}
	for name, mutate := range mutations {
		cfg := base
		mutate(&cfg)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			cfg.Validate()
		}()
	}
	base.Validate() // the unmutated config is valid
}

func TestTable2Presets(t *testing.T) {
	mc, pr, ll := MemcachedConfig(), PageRankConfig(), LiblinearConfig()
	// Table 2 RSS ratios at 1/64 scale: 51, 42, 69 GB.
	if mc.RSSPages != ScaledPagesForGB(51) || mc.RSSPages != 208896 {
		t.Fatalf("memcached RSS = %d pages", mc.RSSPages)
	}
	if pr.RSSPages != 172032 {
		t.Fatalf("pagerank RSS = %d pages", pr.RSSPages)
	}
	if ll.RSSPages != 282624 {
		t.Fatalf("liblinear RSS = %d pages", ll.RSSPages)
	}
	if mc.Class != LC || pr.Class != BE || ll.Class != BE {
		t.Fatal("class assignment wrong")
	}
	// All run 8 threads on dedicated cores (paper §5.3).
	for _, cfg := range []AppConfig{mc, pr, ll} {
		if cfg.Threads != 8 {
			t.Fatalf("%s threads = %d, want 8", cfg.Name, cfg.Threads)
		}
		cfg.Validate()
		// The factory must build a working generator.
		g := cfg.NewGen(1000, sim.NewRNG(1))
		if g.Next().Page >= 1000 {
			t.Fatalf("%s generator out of range", cfg.Name)
		}
	}
	// Liblinear must be the most memory-intensive (lowest compute).
	if !(ll.ComputeNs < pr.ComputeNs && pr.ComputeNs < mc.ComputeNs) {
		t.Fatal("intensity ordering liblinear > pagerank > memcached violated")
	}
}

func TestNomadMicroConfig(t *testing.T) {
	cfg := NomadMicroConfig("micro", 10_000, 2_000, 0.5)
	cfg.Validate()
	g := cfg.NewGen(10_000, sim.NewRNG(4))
	nm, ok := g.(*NomadMicro)
	if !ok {
		t.Fatalf("generator type %T", g)
	}
	if nm.wssPages != 2000 {
		t.Fatalf("WSS = %d", nm.wssPages)
	}
	// WSS clamps to the region when the factory gets a smaller region.
	small := cfg.NewGen(500, sim.NewRNG(5)).(*NomadMicro)
	if small.wssPages != 500 {
		t.Fatalf("clamped WSS = %d, want 500", small.wssPages)
	}
}

func TestClassString(t *testing.T) {
	if LC.String() != "LC" || BE.String() != "BE" {
		t.Fatal("class strings wrong")
	}
}

// TestCheckRejectsUnsafeNames: an app name becomes a metric label
// value, a metrics-CSV field and a trace scope, so Check admits only
// 1-64 bytes of [A-Za-z0-9._~-].
func TestCheckRejectsUnsafeNames(t *testing.T) {
	cfg := AppConfig{
		Class: BE, Threads: 1, RSSPages: 100,
		NewGen: func(pages int, rng *sim.RNG) Generator { return NewUniform(pages, 0, 0, rng) },
	}
	long := strings.Repeat("a", MaxNameLen)
	for _, name := range []string{"memcached", "churn.12", "job02~1", "A-Z_0.9", long} {
		cfg.Name = name
		if err := cfg.Check(); err != nil {
			t.Errorf("name %q rejected: %v", name, err)
		}
	}
	for _, name := range []string{"", "x,y", "p}q", "n\nl", "a=b", "a{b", "sp ace", `q"t`, "\xff", long + "a"} {
		cfg.Name = name
		if err := cfg.Check(); err == nil {
			t.Errorf("name %q accepted", name)
		}
	}
}
