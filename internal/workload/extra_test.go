package workload

import (
	"math"
	"testing"

	"vulcan/internal/sim"
)

func TestWebServerRegions(t *testing.T) {
	g := NewWebServer(2000, sim.NewRNG(1))
	if g.sessionPages != 100 {
		t.Fatalf("session pages = %d, want 100", g.sessionPages)
	}
	session, cache, content := 0, 0, 0
	const n = 50_000
	for i := 0; i < n; i++ {
		r := g.Next()
		switch {
		case r.Page < 100:
			session++
		case r.Page < 400:
			cache++
		default:
			content++
			if r.Write {
				t.Fatal("write to read-only content store")
			}
		}
	}
	if f := float64(session) / n; math.Abs(f-0.45) > 0.02 {
		t.Fatalf("session fraction = %v, want ~0.45", f)
	}
	if f := float64(cache) / n; math.Abs(f-0.35) > 0.02 {
		t.Fatalf("cache fraction = %v, want ~0.35", f)
	}
	if f := float64(content) / n; math.Abs(f-0.20) > 0.02 {
		t.Fatalf("content fraction = %v, want ~0.20", f)
	}
}

func TestWebServerSessionSkew(t *testing.T) {
	g := NewWebServer(2000, sim.NewRNG(2))
	counts := make(map[int]int)
	for i := 0; i < 50_000; i++ {
		if r := g.Next(); r.Page < g.sessionPages {
			counts[r.Page]++
		}
	}
	if counts[0] < 20*counts[90] && counts[90] > 0 {
		t.Fatalf("session popularity not skewed: head=%d tail=%d", counts[0], counts[90])
	}
}

func TestWebServerTinyRegion(t *testing.T) {
	g := NewWebServer(5, sim.NewRNG(3))
	for i := 0; i < 200; i++ {
		if p := g.Next().Page; p < 0 || p >= 5 {
			t.Fatalf("page %d out of range", p)
		}
	}
}

func TestExtraGeneratorIdentity(t *testing.T) {
	rng := sim.NewRNG(1)
	if NewWebServer(100, rng).Name() != "webserver" {
		t.Fatal("webserver name")
	}
}
