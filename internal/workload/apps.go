package workload

import "vulcan/internal/sim"

// KeyValue models a Memcached-style in-memory store under YCSB-C-like
// load: a small hot key set absorbs most requests (paper §5.3: "a hot key
// set accessed 90% of the time"), GET/SET mix defaults to 90/10, and the
// hot set is substantially cache-friendly — which is exactly why
// miss-based profilers underestimate its heat.
type KeyValue struct {
	pages    int
	hotPages int
	set      sim.Prob
	hot      sim.Prob
	rng      *sim.RNG
}

// KeyValue's access mix: the paper's memcached defaults.
const (
	kvHotFraction float64 = 0.10 // of pages in the hot set
	kvHotProb     float64 = 0.90 // of accesses hitting the hot set
	kvSetFraction float64 = 0.10 // writes: 90% GETs / 10% SETs
	kvHotLLCHit   float64 = 0.70
	kvColdLLCHit  float64 = 0.05
)

// NewKeyValue builds the generator over pages pages.
func NewKeyValue(pages int, rng *sim.RNG) *KeyValue {
	checkRegion(pages, 0)
	hot := int(float64(pages) * kvHotFraction)
	if hot < 1 {
		hot = 1
	}
	return &KeyValue{
		pages:    pages,
		hotPages: hot,
		set:      sim.NewProb(kvSetFraction),
		hot:      sim.NewProb(kvHotProb),
		rng:      rng,
	}
}

// Name implements Generator.
func (k *KeyValue) Name() string { return "keyvalue" }

// Pages implements Generator.
func (k *KeyValue) Pages() int { return k.pages }

// Next implements Generator.
func (k *KeyValue) Next() Ref {
	write := k.rng.Hit(k.set)
	if k.rng.Hit(k.hot) {
		// Hot keys are roughly equally popular: every hot page matters,
		// so losing part of the hot set to the slow tier hurts
		// proportionally (the cold-page dilemma's victim profile).
		return Ref{Page: k.rng.Intn(k.hotPages), Write: write, LLCHitProb: kvHotLLCHit}
	}
	cold := k.hotPages + k.rng.Intn(k.pages-k.hotPages)
	return Ref{Page: cold, Write: write, LLCHitProb: kvColdLLCHit}
}

// GraphWalk models PageRank-style graph processing: streaming reads of
// edge lists mixed with power-law random access to vertex state, with
// rank updates writing the vertex region (paper: "memory- and
// compute-intensive graph algorithm execution", "intensive irregular
// random access").
type GraphWalk struct {
	pages       int
	vertexPages int
	vertexProb  sim.Prob
	vertexWrite sim.Prob
	vertexZipf  *sim.Zipf
	edgeCursor  int
	rng         *sim.RNG
}

// NewGraphWalk builds the generator: the first 20% of pages hold vertex
// state (rank arrays), the rest hold edge lists.
func NewGraphWalk(pages int, rng *sim.RNG) *GraphWalk {
	checkRegion(pages, 0)
	v := pages / 5
	if v < 1 {
		v = 1
	}
	return &GraphWalk{
		pages:       pages,
		vertexPages: v,
		vertexProb:  sim.NewProb(0.45),
		vertexWrite: sim.NewProb(0.30),
		vertexZipf:  sim.NewZipf(rng, v, 0.75),
		rng:         rng,
	}
}

// Name implements Generator.
func (g *GraphWalk) Name() string { return "graphwalk" }

// Pages implements Generator.
func (g *GraphWalk) Pages() int { return g.pages }

// Next implements Generator.
func (g *GraphWalk) Next() Ref {
	if g.rng.Hit(g.vertexProb) {
		// Vertex access: power-law popularity (high in-degree vertices),
		// moderately cache-resident.
		return Ref{
			Page:       g.vertexZipf.Next(),
			Write:      g.rng.Hit(g.vertexWrite),
			LLCHitProb: 0.45,
		}
	}
	// Edge-list streaming: sequential, read-only, cache-hostile.
	p := g.vertexPages + g.edgeCursor
	g.edgeCursor++
	if g.vertexPages+g.edgeCursor >= g.pages {
		g.edgeCursor = 0
	}
	return Ref{Page: p, Write: false, LLCHitProb: 0.05}
}

// MLTrain models Liblinear-style linear classification over a large
// dataset (KDD12) using dual coordinate descent with shrinking: frequent
// writes to a small cache-hot weight vector, repeated random access to an
// "active set" of examples that survives shrinking, and high-intensity
// sequential passes over the full training data. The streaming majority
// makes its footprint look persistently hot to miss-based profilers —
// the fast-tier monopolizer of Figure 1 — while the active set gives the
// workload genuine tiering upside.
type MLTrain struct {
	pages       int
	weightPages int
	activePages int
	dataCursor  int
	// The region-pick ladder (weights below 0.10, the active set below
	// 0.40, streaming above) and the weight write fraction.
	weightPick  sim.Prob
	activePick  sim.Prob
	weightWrite sim.Prob
	rng         *sim.RNG
}

// NewMLTrain builds the generator: ~3% of pages are the model (weights),
// the next ~20% the active set, the rest streamed training data.
func NewMLTrain(pages int, rng *sim.RNG) *MLTrain {
	checkRegion(pages, 0)
	w := pages / 32
	if w < 1 {
		w = 1
	}
	active := pages / 5
	if w+active >= pages {
		active = (pages - w) / 2
	}
	if active < 1 {
		active = 1
	}
	return &MLTrain{
		pages:       pages,
		weightPages: w,
		activePages: active,
		weightPick:  sim.NewProb(0.10),
		activePick:  sim.NewProb(0.40),
		weightWrite: sim.NewProb(0.5),
		rng:         rng,
	}
}

// Name implements Generator.
func (m *MLTrain) Name() string { return "mltrain" }

// Pages implements Generator.
func (m *MLTrain) Pages() int { return m.pages }

// Next implements Generator.
func (m *MLTrain) Next() Ref {
	r := m.rng.Draw()
	switch {
	case r < m.weightPick:
		// Model updates: cache-resident, write-heavy.
		return Ref{
			Page:       m.rng.Intn(m.weightPages),
			Write:      m.rng.Hit(m.weightWrite),
			LLCHitProb: 0.90,
		}
	case r < m.activePick:
		// Active-set revisits: random, too large for the LLC, rewarding
		// fast-tier placement.
		return Ref{
			Page:       m.weightPages + m.rng.Intn(m.activePages),
			Write:      false,
			LLCHitProb: 0.05,
		}
	default:
		// Full-dataset streaming pass.
		base := m.weightPages + m.activePages
		p := base + m.dataCursor
		m.dataCursor++
		if base+m.dataCursor >= m.pages {
			m.dataCursor = 0
		}
		return Ref{Page: p, Write: false, LLCHitProb: 0.02}
	}
}

// NomadMicro reproduces the microbenchmark Nomad (and §5.2) uses to
// stress tiering: data is allocated across tiers, a working set of
// wssPages inside the rssPages region is accessed with a Zipfian
// distribution, and the read/write mix is configurable.
type NomadMicro struct {
	rssPages int
	wssPages int
	wssPick  sim.Prob
	write    sim.Prob
	wssZipf  *sim.Zipf
	rng      *sim.RNG
}

// NewNomadMicro builds the generator. wssPages must not exceed rssPages.
func NewNomadMicro(rssPages, wssPages int, writeFrac float64, rng *sim.RNG) *NomadMicro {
	checkRegion(rssPages, writeFrac)
	if wssPages <= 0 || wssPages > rssPages {
		panic("workload: WSS must be in (0, RSS]")
	}
	return &NomadMicro{
		rssPages: rssPages,
		wssPages: wssPages,
		wssPick:  sim.NewProb(0.98),
		write:    sim.NewProb(writeFrac),
		wssZipf:  sim.NewZipf(rng, wssPages, 0.99),
		rng:      rng,
	}
}

// Name implements Generator.
func (n *NomadMicro) Name() string { return "nomad-micro" }

// Pages implements Generator.
func (n *NomadMicro) Pages() int { return n.rssPages }

// Next implements Generator.
func (n *NomadMicro) Next() Ref {
	// 98% of accesses hit the working set, Zipf-distributed.
	if n.rng.Hit(n.wssPick) {
		return Ref{
			Page:       n.wssZipf.Next(),
			Write:      n.rng.Hit(n.write),
			LLCHitProb: 0.15,
		}
	}
	return Ref{
		Page:       n.rng.Intn(n.rssPages),
		Write:      n.rng.Hit(n.write),
		LLCHitProb: 0.02,
	}
}
