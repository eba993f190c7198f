// Package workload provides synthetic access-pattern generators for the
// paper's applications (Memcached/YCSB-C, PageRank, Liblinear/KDD12), the
// Nomad-style WSS/RSS microbenchmark used in Figure 8, and generic
// building blocks (uniform, Zipfian, sequential scan).
//
// Each generator emits page-level references annotated with a last-level
// cache hit probability. LLC locality matters twice: cache-resident
// accesses never reach memory (so tier placement cannot help them), and
// miss-based profilers (PEBS) never see them — which is precisely how
// latency-critical workloads with cache-friendly hot sets end up looking
// "cold" next to streaming best-effort workloads (Observation #1).
package workload

import (
	"fmt"

	"vulcan/internal/sim"
)

// Ref is one generated page reference.
type Ref struct {
	Page  int  // page index within the generator's region [0, Pages())
	Write bool // store vs load
	// LLCHitProb is the probability this access is absorbed by the CPU
	// cache and never reaches memory.
	LLCHitProb float64
}

// Generator produces a stream of page references over a fixed-size
// region. Generators own their RNG and are deterministic from the seed.
type Generator interface {
	Name() string
	Pages() int
	Next() Ref
}

// Uniform references every page with equal probability.
type Uniform struct {
	pages  int
	write  sim.Prob
	llcHit float64
	rng    *sim.RNG
}

// NewUniform builds a uniform generator over pages pages.
func NewUniform(pages int, writeFrac, llcHit float64, rng *sim.RNG) *Uniform {
	checkRegion(pages, writeFrac)
	return &Uniform{pages: pages, write: sim.NewProb(writeFrac), llcHit: llcHit, rng: rng}
}

// Name implements Generator.
func (u *Uniform) Name() string { return "uniform" }

// Pages implements Generator.
func (u *Uniform) Pages() int { return u.pages }

// Next implements Generator.
func (u *Uniform) Next() Ref {
	return Ref{
		Page:       u.rng.Intn(u.pages),
		Write:      u.rng.Hit(u.write),
		LLCHitProb: u.llcHit,
	}
}

// Zipfian references pages with a Zipf(skew) popularity distribution;
// rank 0 (the hottest) is page 0, matching the paper's microbenchmarks
// that allocate hot data contiguously.
type Zipfian struct {
	pages  int
	write  sim.Prob
	llcHit float64
	zipf   *sim.Zipf
	rng    *sim.RNG
}

// NewZipfian builds a Zipfian generator.
func NewZipfian(pages int, skew, writeFrac, llcHit float64, rng *sim.RNG) *Zipfian {
	checkRegion(pages, writeFrac)
	return &Zipfian{
		pages:  pages,
		write:  sim.NewProb(writeFrac),
		llcHit: llcHit,
		zipf:   sim.NewZipf(rng, pages, skew),
		rng:    rng,
	}
}

// Name implements Generator.
func (z *Zipfian) Name() string { return "zipfian" }

// Pages implements Generator.
func (z *Zipfian) Pages() int { return z.pages }

// Next implements Generator.
func (z *Zipfian) Next() Ref {
	return Ref{
		Page:       z.zipf.Next(),
		Write:      z.rng.Hit(z.write),
		LLCHitProb: z.llcHit,
	}
}

// Scan walks the region sequentially, wrapping around — the streaming
// pattern of dataset passes. Sequential streams have near-zero LLC
// residence by construction.
type Scan struct {
	pages  int
	write  sim.Prob
	llcHit float64
	cursor int
	rng    *sim.RNG
}

// NewScan builds a sequential scan generator.
func NewScan(pages int, writeFrac, llcHit float64, rng *sim.RNG) *Scan {
	checkRegion(pages, writeFrac)
	return &Scan{pages: pages, write: sim.NewProb(writeFrac), llcHit: llcHit, rng: rng}
}

// Name implements Generator.
func (s *Scan) Name() string { return "scan" }

// Pages implements Generator.
func (s *Scan) Pages() int { return s.pages }

// Next implements Generator.
func (s *Scan) Next() Ref {
	p := s.cursor
	s.cursor++
	if s.cursor >= s.pages {
		s.cursor = 0
	}
	return Ref{Page: p, Write: s.rng.Hit(s.write), LLCHitProb: s.llcHit}
}

// minPages returns the smallest region g's kind of generator can draw
// from. Generators that split their region into sub-ranges need a page
// in each: KeyValue a hot and a cold range, GraphWalk vertex state and
// edge lists, MLTrain and WebServer three ranges each. The rest draw
// from any nonempty region.
func minPages(g Generator) int {
	switch g.(type) {
	case *KeyValue, *GraphWalk:
		return 2
	case *MLTrain, *WebServer:
		return 3
	}
	return 1
}

func checkRegion(pages int, writeFrac float64) {
	if pages <= 0 {
		panic(fmt.Sprintf("workload: region of %d pages", pages))
	}
	if writeFrac < 0 || writeFrac > 1 {
		panic(fmt.Sprintf("workload: write fraction %v outside [0,1]", writeFrac))
	}
}
