package profile

import (
	"bytes"
	"math"
	"reflect"
	"sort"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/dense"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// refStat is one page's entry in the heat store's reference model.
type refStat struct{ heat, reads, writes float64 }

// refHeat is a map-backed model of heatStore: the same arithmetic, no
// chunks, masks or caches.
type refHeat map[pagetable.VPage]*refStat

func (m refHeat) record(vp pagetable.VPage, write bool, weight float64) {
	s := m[vp]
	if s == nil {
		s = &refStat{}
		m[vp] = s
	}
	s.heat += weight
	if write {
		s.writes += weight
	} else {
		s.reads += weight
	}
}

func (m refHeat) endEpoch(decay float64) {
	for vp, s := range m {
		v := s.heat * decay
		if v < evictBelow {
			delete(m, vp)
			continue
		}
		s.heat = v
		s.reads *= decay
		s.writes *= decay
	}
}

func (m refHeat) sortedPages() []pagetable.VPage {
	vps := make([]pagetable.VPage, 0, len(m))
	for vp := range m {
		vps = append(vps, vp)
	}
	sort.Slice(vps, func(i, j int) bool { return vps[i] < vps[j] })
	return vps
}

// pages mirrors heatStore.HeatPages: ascending page order.
func (m refHeat) pages() []PageHeat {
	out := []PageHeat{}
	for _, vp := range m.sortedPages() {
		s := m[vp]
		wf := 0.0
		if total := s.reads + s.writes; total > 0 {
			wf = s.writes / total
		}
		out = append(out, PageHeat{VP: vp, Heat: s.heat, WriteFrac: wf})
	}
	return out
}

// snapshot mirrors heatStore.HeatSnapshot: hottest first, ties by page.
func (m refHeat) snapshot() []PageHeat {
	out := m.pages()
	sort.SliceStable(out, func(i, j int) bool { return out[i].Heat > out[j].Heat })
	return out
}

// encode writes the run-length layout heatStore.Snapshot documents.
func (m refHeat) encode() []byte {
	vps := m.sortedPages()
	var runs [][]pagetable.VPage
	for i, vp := range vps {
		if i == 0 || vp != vps[i-1]+1 {
			runs = append(runs, nil)
		}
		runs[len(runs)-1] = append(runs[len(runs)-1], vp)
	}
	e := &checkpoint.Encoder{}
	e.Int(len(vps))
	e.Int(len(runs))
	for _, run := range runs {
		e.U64(uint64(run[0]))
		e.Int(len(run))
		for _, vp := range run {
			s := m[vp]
			e.F64(s.heat)
			e.F64(s.reads)
			e.F64(s.writes)
		}
	}
	return e.Bytes()
}

// samePages compares two collections, treating nil and empty alike.
func samePages(a, b []PageHeat) bool {
	return len(a) == 0 && len(b) == 0 || reflect.DeepEqual(a, b)
}

// checkChunks asserts the live-mask invariants on every chunk: the
// cells are unallocated, the head or the whole chunk; a mask bit is set
// exactly when its cell's heat is nonzero; every dead cell is all-zero;
// and live counts the live cells.
func checkChunks(t *testing.T, h *heatStore) {
	t.Helper()
	for ci, c := h.dir.Next(0); c != nil; ci, c = h.dir.Next(ci + 1) {
		if n := len(c.cells); n != 0 && n != chunkHeadPages && n != chunkPages {
			t.Fatalf("chunk at page %d holds %d cells", chunkBase(ci), n)
		}
		live := 0
		for i := 0; i < chunkPages; i++ {
			vp := chunkBase(ci) | pagetable.VPage(i)
			var cell heatCell
			if i < len(c.cells) {
				cell = c.cells[i]
			}
			bit := c.mask[i>>6]&(1<<(i&63)) != 0
			if bit != (cell.heat != 0) {
				t.Fatalf("page %d: live bit %t, heat %v", vp, bit, cell.heat)
			}
			if !bit && cell != (heatCell{}) {
				t.Fatalf("dead page %d holds state %+v", vp, cell)
			}
			if bit {
				live++
			}
		}
		if live != c.live {
			t.Fatalf("chunk at page %d: live = %d, %d live cells", chunkBase(ci), c.live, live)
		}
	}
}

// TestHeatStoreMatchesReference drives a heat store and its map model
// through seeded random sequences of record, epoch decay (with chunks
// going cold enough that every cell evicts), setRaw, Snapshot/Restore
// and reset, over pages in several chunks and directory blocks. After
// every step the store's collections, tracked count and checkpoint
// bytes must equal the model's, and every chunk's live mask must mark
// exactly its live cells.
func TestHeatStoreMatchesReference(t *testing.T) {
	// Windows around chunk-head, chunk and directory-block boundaries,
	// plus a far block that forces directory growth.
	const block = chunkPages * dense.DirBlock
	windows := []pagetable.VPage{0, chunkHeadPages - 40, chunkPages - 40, 5*chunkPages + 100, block - 40, 3*block + 7}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		h := newHeatStore(DefaultDecay)
		ref := refHeat{}
		page := func() pagetable.VPage {
			return windows[rng.Intn(len(windows))] + pagetable.VPage(rng.Intn(80))
		}
		for step := 0; step < 400; step++ {
			op := rng.Intn(100)
			switch {
			case op < 55:
				// A burst of records; small weights die within a few
				// epochs, large ones keep their chunk alive.
				weight := 0.01 + rng.Float64()
				if rng.Intn(4) == 0 {
					weight *= 1000
				}
				for n := rng.Intn(20); n >= 0; n-- {
					vp, write := page(), rng.Intn(3) == 0
					h.record(vp, write, weight)
					ref.record(vp, write, weight)
				}
			case op < 85:
				// Now and then a long idle stretch: chunks go cold and a
				// sweep evicts every cell they hold.
				n := 1
				if rng.Intn(10) == 0 {
					n = 24
				}
				for ; n > 0; n-- {
					h.endEpoch()
					ref.endEpoch(DefaultDecay)
				}
			case op < 92:
				vp := page()
				heat, reads, writes := 0.5+rng.Float64(), rng.Float64(), rng.Float64()
				_, taken := ref[vp]
				if ok := h.setRaw(vp, heat, reads, writes); ok == taken {
					t.Fatalf("seed %d step %d: setRaw(%d) = %v with the page tracked = %v", seed, step, vp, ok, taken)
				}
				if !taken {
					ref[vp] = &refStat{heat, reads, writes}
				}
			case op < 98:
				e := &checkpoint.Encoder{}
				h.Snapshot(e)
				restored := newHeatStore(DefaultDecay)
				d := checkpoint.NewDecoder(e.Bytes())
				if err := restored.Restore(d); err != nil {
					t.Fatalf("seed %d step %d: restore: %v", seed, step, err)
				}
				if err := d.Close(); err != nil {
					t.Fatalf("seed %d step %d: restore left bytes: %v", seed, step, err)
				}
				h = restored
			default:
				h.reset()
				ref = refHeat{}
			}
			checkChunks(t, h)
			for n := 0; n < 4; n++ {
				vp := page()
				want, wantWF := 0.0, 0.0
				if s := ref[vp]; s != nil {
					want = s.heat
					if total := s.reads + s.writes; total > 0 {
						wantWF = s.writes / total
					}
				}
				if got, gotWF := h.Heat(vp), h.WriteFraction(vp); got != want || gotWF != wantWF {
					t.Fatalf("seed %d step %d: page %d heat %v write fraction %v, model %v and %v",
						seed, step, vp, got, gotWF, want, wantWF)
				}
			}
			if h.Tracked() != len(ref) {
				t.Fatalf("seed %d step %d: tracked = %d, model has %d", seed, step, h.Tracked(), len(ref))
			}
			e := &checkpoint.Encoder{}
			h.Snapshot(e)
			if !bytes.Equal(e.Bytes(), ref.encode()) {
				t.Fatalf("seed %d step %d: Snapshot bytes differ from the model's", seed, step)
			}
			// Alternate the query order: a HeatSnapshot sort may leave
			// the scratch in the sort buffer's spare, which the next
			// HeatPages collects into.
			if step%2 == 0 {
				if got, want := h.HeatPages(), ref.pages(); !samePages(got, want) {
					t.Fatalf("seed %d step %d: HeatPages differs from the model:\n got %v\nwant %v", seed, step, got, want)
				}
			}
			if got, want := h.HeatSnapshot(), ref.snapshot(); !samePages(got, want) {
				t.Fatalf("seed %d step %d: HeatSnapshot differs from the model:\n got %v\nwant %v", seed, step, got, want)
			}
			if got, want := h.HeatPages(), ref.pages(); !samePages(got, want) {
				t.Fatalf("seed %d step %d: HeatPages after HeatSnapshot differs from the model", seed, step)
			}
		}
	}
}

// reset drops all state, as a fresh store would have it.
func (h *heatStore) reset() {
	h.dir = dense.Dir[heatChunk]{}
	h.trackedPages = 0
}

// TestHeatWordMatchesPointwise checks every profiler's HeatWord against
// its Heat and WriteFraction for all 64 pages of a word: the live bit
// is set exactly for the pages with heat, and both accessors agree bit
// for bit. The words lie at bases 0, 448, 512 and 4032 of a chunk that
// holds only its head cells, of a chunk never allocated, and of a far
// chunk in a later directory block, grown past its head. Decay evicts
// some pages first, so live words hold dead cells.
func TestHeatWordMatchesPointwise(t *testing.T) {
	tbl := newProfileTable()
	profilers := []Profiler{
		NewPEBSWithDecay(1, DefaultDecay, 9),
		NewHybrid(tbl, 1, DefaultDecay, 9),
		NewHintFault(tbl, 64, 1000),
	}
	far := pagetable.VPage(chunkPages * (dense.DirBlock + 3))
	var pages []pagetable.VPage
	for vp := pagetable.VPage(0); vp < 500; vp += 3 {
		pages = append(pages, vp)
	}
	for vp := far + 400; vp < far+4096; vp += 7 {
		pages = append(pages, vp)
	}
	for _, p := range profilers {
		var heat *heatStore
		switch in := p.(type) {
		case *PEBS:
			heat = in.heatStore
		case *Hybrid:
			heat = in.heatStore
		case *HintFault:
			heat = in.heatStore
		}
		for k, vp := range pages {
			// The hint-fault profiler records only through its poison
			// window, so feed the store directly, alike for all three.
			for i := 0; i <= k%5; i++ {
				heat.record(vp, (k+i)%3 == 0, float64(1+k%4))
			}
		}
		heat.endEpoch()
		for i := 0; i < 8; i++ {
			heat.endEpoch()
			heat.record(6, false, 1)
			heat.record(far+403, true, 2)
		}
		if heat.Tracked() == 0 || heat.Tracked() == len(pages) {
			t.Fatalf("%s: %d of %d pages tracked, want some evicted and some live", p.Name(), heat.Tracked(), len(pages))
		}
		for _, chunk := range []pagetable.VPage{0, chunkPages, far} {
			for _, off := range []pagetable.VPage{0, 448, 512, 4032} {
				base := chunk + off
				w := p.HeatWord(base)
				for i := 0; i < 64; i++ {
					vp := base + pagetable.VPage(i)
					h, wf := p.Heat(vp), p.WriteFraction(vp)
					if live := w.Live&(1<<i) != 0; live != (h != 0) {
						t.Fatalf("%s page %d: live bit %t, heat %v", p.Name(), vp, live, h)
					}
					if math.Float64bits(w.Heat(i)) != math.Float64bits(h) || math.Float64bits(w.WriteFrac(i)) != math.Float64bits(wf) {
						t.Fatalf("%s page %d: word reads heat %v, write fraction %v; pointwise %v, %v",
							p.Name(), vp, w.Heat(i), w.WriteFrac(i), h, wf)
					}
				}
			}
		}
	}
	var zero HeatWord
	if zero.Live != 0 || zero.Heat(5) != 0 || zero.WriteFrac(5) != 0 {
		t.Fatal("the zero HeatWord does not read as untracked")
	}
}
