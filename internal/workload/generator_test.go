package workload

import (
	"math"
	"testing"

	"vulcan/internal/sim"
)

func countPages(g Generator, draws int) map[int]int {
	counts := make(map[int]int)
	for i := 0; i < draws; i++ {
		r := g.Next()
		counts[r.Page]++
	}
	return counts
}

func TestUniformCoverageAndBounds(t *testing.T) {
	g := NewUniform(100, 0.2, 0.1, sim.NewRNG(1))
	counts := countPages(g, 50_000)
	for p := range counts {
		if p < 0 || p >= 100 {
			t.Fatalf("page %d out of range", p)
		}
	}
	if len(counts) < 95 {
		t.Fatalf("uniform covered only %d/100 pages", len(counts))
	}
}

func TestUniformWriteFraction(t *testing.T) {
	g := NewUniform(10, 0.3, 0, sim.NewRNG(2))
	writes := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	if f := float64(writes) / n; math.Abs(f-0.3) > 0.01 {
		t.Fatalf("write fraction = %v, want 0.3", f)
	}
}

func TestZipfianSkew(t *testing.T) {
	g := NewZipfian(1000, 0.99, 0, 0, sim.NewRNG(3))
	counts := countPages(g, 100_000)
	if counts[0] < counts[500]*10 {
		t.Fatalf("insufficient skew: page0=%d page500=%d", counts[0], counts[500])
	}
}

func TestScanSequential(t *testing.T) {
	g := NewScan(5, 0, 0, sim.NewRNG(4))
	var got []int
	for i := 0; i < 12; i++ {
		got = append(got, g.Next().Page)
	}
	want := []int{0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order %v, want %v", got, want)
		}
	}
}

func TestRegionValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	for name, fn := range map[string]func(){
		"zero pages":     func() { NewUniform(0, 0, 0, rng) },
		"bad write frac": func() { NewUniform(10, 1.5, 0, rng) },
		"neg write frac": func() { NewScan(10, -0.1, 0, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestKeyValueHotSetConcentration(t *testing.T) {
	g := NewKeyValue(1000, sim.NewRNG(5))
	if g.hotPages != 100 {
		t.Fatalf("hot pages = %d, want 100", g.hotPages)
	}
	hot := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if g.Next().Page < g.hotPages {
			hot++
		}
	}
	frac := float64(hot) / n
	if math.Abs(frac-0.9) > 0.02 {
		t.Fatalf("hot-set hit fraction = %v, want ~0.9", frac)
	}
}

func TestKeyValueLLCLocality(t *testing.T) {
	g := NewKeyValue(1000, sim.NewRNG(6))
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.Page < g.hotPages && r.LLCHitProb != 0.70 {
			t.Fatalf("hot access LLC prob = %v", r.LLCHitProb)
		}
		if r.Page >= g.hotPages && r.LLCHitProb != 0.05 {
			t.Fatalf("cold access LLC prob = %v", r.LLCHitProb)
		}
	}
}

func TestKeyValueWriteMix(t *testing.T) {
	g := NewKeyValue(100, sim.NewRNG(7))
	writes := 0
	const n = 100_000
	for i := 0; i < n; i++ {
		if g.Next().Write {
			writes++
		}
	}
	if f := float64(writes) / n; math.Abs(f-0.1) > 0.01 {
		t.Fatalf("SET fraction = %v, want 0.1 (90%% GETs)", f)
	}
}

func TestGraphWalkRegions(t *testing.T) {
	g := NewGraphWalk(1000, sim.NewRNG(8))
	if g.vertexPages != 200 {
		t.Fatalf("vertex pages = %d, want 200", g.vertexPages)
	}
	vertexAccesses, edgeWrites := 0, 0
	const n = 50_000
	for i := 0; i < n; i++ {
		r := g.Next()
		if r.Page < g.vertexPages {
			vertexAccesses++
		} else if r.Write {
			edgeWrites++
		}
	}
	if edgeWrites != 0 {
		t.Fatalf("%d writes to read-only edge lists", edgeWrites)
	}
	frac := float64(vertexAccesses) / n
	if math.Abs(frac-0.45) > 0.02 {
		t.Fatalf("vertex access fraction = %v, want ~0.45", frac)
	}
}

func TestMLTrainRegions(t *testing.T) {
	g := NewMLTrain(3200, sim.NewRNG(9))
	if g.weightPages != 100 {
		t.Fatalf("weight pages = %d, want 100", g.weightPages)
	}
	if g.activePages != 640 {
		t.Fatalf("active pages = %d, want 640", g.activePages)
	}
	streamBase := g.weightPages + g.activePages
	lastStream := -1
	weight, active, stream := 0, 0, 0
	const n = 20_000
	for i := 0; i < n; i++ {
		r := g.Next()
		switch {
		case r.Page < g.weightPages:
			weight++
		case r.Page < streamBase:
			active++
			if r.Write {
				t.Fatal("write to active set")
			}
		default:
			stream++
			// Streaming region must advance sequentially (modulo wrap).
			if lastStream >= 0 && r.Page != lastStream+1 && r.Page != streamBase {
				t.Fatalf("stream jumped from %d to %d", lastStream, r.Page)
			}
			lastStream = r.Page
		}
	}
	if f := float64(weight) / n; f < 0.08 || f > 0.12 {
		t.Fatalf("weight fraction = %v, want ~0.10", f)
	}
	if f := float64(active) / n; f < 0.27 || f > 0.33 {
		t.Fatalf("active fraction = %v, want ~0.30", f)
	}
	if f := float64(stream) / n; f < 0.56 || f > 0.64 {
		t.Fatalf("stream fraction = %v, want ~0.60", f)
	}
}

func TestMLTrainDataIsColdInCache(t *testing.T) {
	g := NewMLTrain(3200, sim.NewRNG(10))
	for i := 0; i < 1000; i++ {
		r := g.Next()
		if r.Page >= g.weightPages && r.LLCHitProb > 0.05 {
			t.Fatalf("data access with LLC prob %v", r.LLCHitProb)
		}
	}
}

func TestMLTrainTinyRegion(t *testing.T) {
	// Degenerate sizes must still partition sanely.
	g := NewMLTrain(3, sim.NewRNG(11))
	if g.weightPages < 1 || g.activePages < 1 {
		t.Fatalf("regions: w=%d a=%d", g.weightPages, g.activePages)
	}
	for i := 0; i < 100; i++ {
		if p := g.Next().Page; p < 0 || p >= 3 {
			t.Fatalf("page %d out of range", p)
		}
	}
}

func TestNomadMicroWSSConcentration(t *testing.T) {
	g := NewNomadMicro(10_000, 1_000, 0.5, sim.NewRNG(11))
	inWSS := 0
	const n = 50_000
	for i := 0; i < n; i++ {
		if g.Next().Page < g.wssPages {
			inWSS++
		}
	}
	if frac := float64(inWSS) / n; frac < 0.95 {
		t.Fatalf("WSS concentration = %v, want > 0.95", frac)
	}
}

func TestNomadMicroValidation(t *testing.T) {
	rng := sim.NewRNG(1)
	for name, fn := range map[string]func(){
		"wss zero":     func() { NewNomadMicro(100, 0, 0, rng) },
		"wss too big":  func() { NewNomadMicro(100, 101, 0, rng) },
		"bad writemix": func() { NewNomadMicro(100, 10, 2, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestGeneratorNames(t *testing.T) {
	rng := sim.NewRNG(1)
	for _, tc := range []struct {
		g    Generator
		want string
	}{
		{NewUniform(10, 0, 0, rng), "uniform"},
		{NewZipfian(10, 1, 0, 0, rng), "zipfian"},
		{NewScan(10, 0, 0, rng), "scan"},
		{NewKeyValue(10, rng), "keyvalue"},
		{NewGraphWalk(10, rng), "graphwalk"},
		{NewMLTrain(64, rng), "mltrain"},
		{NewNomadMicro(10, 5, 0, rng), "nomad-micro"},
	} {
		if tc.g.Name() != tc.want {
			t.Errorf("Name = %q, want %q", tc.g.Name(), tc.want)
		}
		if tc.g.Pages() <= 0 {
			t.Errorf("%s Pages = %d", tc.want, tc.g.Pages())
		}
	}
}

// TestThreadNextAllocatesNothing pins the sampled-access front end: a
// thread's draw allocates nothing for any generator kind.
func TestThreadNextAllocatesNothing(t *testing.T) {
	for kind := range genKinds {
		th := BuildThreads(threadConfig(kind, 0.5), sim.NewRNG(2))[0]
		if a := testing.AllocsPerRun(1000, func() { th.Next() }); a != 0 {
			t.Errorf("%s: Thread.Next allocates %v per draw", genKinds[kind].name, a)
		}
	}
}

func BenchmarkThreadNext(b *testing.B) {
	for kind := range genKinds {
		b.Run(genKinds[kind].name, func(b *testing.B) {
			th := BuildThreads(threadConfig(kind, 0.85), sim.NewRNG(4))[0]
			sink := 0
			for i := 0; i < b.N; i++ {
				sink += th.Next().Page
			}
			_ = sink
		})
	}
}
