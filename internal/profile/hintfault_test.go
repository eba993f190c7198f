package profile

import (
	"slices"
	"testing"

	"vulcan/internal/mem"
	"vulcan/internal/pagetable"
	"vulcan/internal/sim"
)

// set marks vp one bit at a time and reports whether it was newly set:
// the per-page marking the word-wise orWord is checked against.
func (b *pageBitmap) set(vp pagetable.VPage) bool {
	c := b.dir.Ensure(uint64(vp) >> chunkShift)
	i := int(vp) & chunkMask
	mask := uint64(1) << (uint(i) & 63)
	if c[i>>6]&mask != 0 {
		return false
	}
	c[i>>6] |= mask
	b.count++
	return true
}

// refWindow rebuilds a HintFault's poison window one present PTE at a
// time, through Range callbacks and one set per poisoned page: the
// reference FuzzHintFaultWindow checks the word-wise EndEpoch against.
type refWindow struct {
	h         *HintFault
	count     int
	wrapLimit pagetable.VPage // the cursor at rebuild start
}

// rebuildVisit poisons one page for the next window during the forward
// (cursor-onward) walk.
func (r *refWindow) rebuildVisit(vp pagetable.VPage, _ pagetable.PTE) bool {
	if vp < r.wrapLimit {
		return true
	}
	if r.count >= r.h.windowPages {
		return false
	}
	r.h.poisoned.set(vp)
	r.count++
	r.h.cursor = vp + 1
	return true
}

// wrapVisit poisons pages below the rebuild-start cursor when the tail of
// the address space came up short of a full window.
func (r *refWindow) wrapVisit(vp pagetable.VPage, _ pagetable.PTE) bool {
	if vp >= r.wrapLimit || r.count >= r.h.windowPages {
		return false
	}
	if r.h.poisoned.set(vp) {
		r.count++
		r.h.cursor = vp + 1
	}
	return true
}

// endEpoch is HintFault.EndEpoch with the per-PTE rebuild.
func (r *refWindow) endEpoch() EpochReport {
	h := r.h
	rep := EpochReport{
		Faults:         h.faultsThisEpoch,
		OverheadCycles: float64(h.windowPages+h.poisoned.count) * 20,
	}
	h.faultsThisEpoch = 0
	h.poisoned.clearAll()
	r.count = 0
	r.wrapLimit = h.cursor
	h.table.Range(r.rebuildVisit)
	if r.count < h.windowPages && r.wrapLimit > 0 {
		h.table.Range(r.wrapVisit)
	}
	h.endEpoch()
	rep.Tracked = h.Tracked()
	return rep
}

// poisonedPages lists the poison window in ascending order.
func poisonedPages(h *HintFault) []pagetable.VPage {
	var out []pagetable.VPage
	h.poisoned.forEach(func(vp pagetable.VPage) { out = append(out, vp) })
	return out
}

// windowSpan is the page range runHintFaultWindow maps: six leaves, of
// which the fifth is never allocated.
const windowSpan = 6 * pagetable.EntriesPerTable

// runHintFaultWindow builds a table from a seeded present pattern (per
// 64-page word: empty, full, dense or sparse, with one leaf left out),
// then drives a HintFault and a per-PTE reference twin over it from the
// same cursor with the same window, through ops decoded three bytes
// each: a Record at any page, a Record at a poisoned page, an Unmap, a
// Map, or an epoch end. After every epoch the two must agree on the
// report, the poisoned pages, the poisoned count and the cursor.
func runHintFaultWindow(t *testing.T, seed uint64, window, cursor uint16, ops []byte) {
	rng := sim.NewRNG(seed)
	tbl := pagetable.NewReplicated(1)
	frame := uint32(0)
	mapPage := func(vp pagetable.VPage) {
		if tbl.Map(0, vp, pagetable.NewPTE(mem.Frame{Tier: mem.TierSlow, Index: frame}, 0)) == nil {
			frame++
		}
	}
	for w := 0; w < windowSpan/64; w++ {
		if w/(pagetable.EntriesPerTable/64) == 4 {
			continue
		}
		mode := rng.Intn(4)
		for i := 0; i < 64; i++ {
			if mode == 1 || mode == 2 && rng.Intn(4) != 0 || mode == 3 && rng.Intn(8) == 0 {
				mapPage(pagetable.VPage(w*64 + i))
			}
		}
	}
	pages := 1 + int(window)%(2*tbl.Mapped()+2)
	live := NewHintFault(tbl, pages, 500)
	ref := NewHintFault(tbl, pages, 500)
	live.cursor = pagetable.VPage(cursor) % (windowSpan + 64)
	ref.cursor = live.cursor
	r := &refWindow{h: ref}

	epoch := 0
	endEpoch := func() {
		epoch++
		got, want := live.EndEpoch(), r.endEpoch()
		if got != want {
			t.Fatalf("epoch %d: report %+v, reference %+v", epoch, got, want)
		}
		if gp, wp := poisonedPages(live), poisonedPages(ref); !slices.Equal(gp, wp) {
			t.Fatalf("epoch %d: poisoned %v, reference %v", epoch, gp, wp)
		}
		if live.poisoned.count != ref.poisoned.count || live.cursor != ref.cursor {
			t.Fatalf("epoch %d: count %d cursor %d, reference %d and %d",
				epoch, live.poisoned.count, live.cursor, ref.poisoned.count, ref.cursor)
		}
	}
	endEpoch()
	for ; len(ops) >= 3; ops = ops[3:] {
		op, vp := ops[0]%5, pagetable.VPage(uint16(ops[1])|uint16(ops[2])<<8)%windowSpan
		switch op {
		case 0, 1:
			if p := poisonedPages(live); op == 1 && len(p) > 0 {
				vp = p[int(ops[1])%len(p)]
			}
			a := Access{VP: vp, Write: ops[0]&8 != 0}
			if got, want := live.Record(a), ref.Record(a); got != want {
				t.Fatalf("epoch %d: Record(%d) cost %v, reference %v", epoch, vp, got, want)
			}
		case 2:
			tbl.Unmap(vp)
		case 3:
			mapPage(vp)
		case 4:
			endEpoch()
		}
	}
	for i := 0; i < 3; i++ {
		endEpoch()
	}
}

// FuzzHintFaultWindow checks the word-wise window rebuild against the
// per-PTE reference over arbitrary present patterns, windows, cursors
// and operation sequences. Its seed corpus runs in every go test.
func FuzzHintFaultWindow(f *testing.F) {
	f.Add(uint64(1), uint16(0), uint16(0), []byte{})
	f.Add(uint64(2), uint16(100), uint16(700), []byte{4, 0, 0, 1, 3, 0, 4, 0, 0, 2, 0x40, 1, 4, 0, 0})
	f.Add(uint64(3), uint16(65535), uint16(windowSpan+63), []byte{3, 0xff, 0x0b, 4, 0, 0, 4, 0, 0})
	rng := sim.NewRNG(42)
	for seed := uint64(4); seed < 20; seed++ {
		ops := make([]byte, 3*120)
		for i := range ops {
			ops[i] = byte(rng.Uint64())
		}
		f.Add(seed, uint16(rng.Uint64()), uint16(rng.Uint64()), ops)
	}
	f.Fuzz(runHintFaultWindow)
}

// TestPageBitmapOrWord pins orWord's contract against per-page set:
// it marks the lowest n unmarked pages of the word, returns them and
// counts only them.
func TestPageBitmapOrWord(t *testing.T) {
	rng := sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		var got, want pageBitmap
		base := pagetable.VPage(rng.Intn(3*chunkPages)) &^ 63
		for k := rng.Intn(40); k > 0; k-- {
			vp := base + pagetable.VPage(rng.Intn(64))
			got.set(vp)
			want.set(vp)
		}
		word, n := rng.Uint64()&rng.Uint64(), rng.Intn(70)
		added := got.orWord(base, word, n)
		var wantAdded uint64
		for j := 0; j < 64 && n > 0; j++ {
			if word&(1<<j) != 0 && want.set(base+pagetable.VPage(j)) {
				wantAdded |= 1 << j
				n--
			}
		}
		if added != wantAdded || got.count != want.count {
			t.Fatalf("orWord(%d, %#x) added %#x count %d, want %#x and %d", base, word, added, got.count, wantAdded, want.count)
		}
	}
}
