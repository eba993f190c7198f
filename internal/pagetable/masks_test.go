package pagetable

import (
	"math/bits"
	"slices"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
)

// opsThreads and opsPages shape the tables runTableOps builds: a few
// threads, and pages over four leaves so walks cross leaf boundaries.
const (
	opsThreads = 4
	opsPages   = 4*EntriesPerTable - 100
)

// runTableOps decodes data, four bytes per operation, into a sequence of
// Map, Install, Touch, Unmap, SweepAccessed and Snapshot/Restore calls
// on a fresh table, checking the leaf masks against the PTEs after
// every one, and every Touch against touchReference.
func runTableOps(t *testing.T, data []byte) {
	r := NewReplicated(opsThreads)
	for ; len(data) >= 4; data = data[4:] {
		applyTableOp(t, r, data[:4])
		checkTableMasks(t, r)
	}
}

// applyTableOp applies the operation op, four bytes, to r.
func applyTableOp(t *testing.T, r *Replicated, op []byte) {
	t.Helper()
	kind, tid := op[0]%6, int(op[0]/6)%opsThreads
	vp := VPage(uint16(op[1])|uint16(op[2])<<8) % opsPages
	arg := op[3]
	frame := mem.Frame{Tier: mem.TierID(arg & 1), Index: uint32(arg)}
	switch kind {
	case 0:
		r.Map(tid, vp, NewPTE(frame, 0))
	case 1:
		p := NewPTE(frame, uint8(arg>>4)%opsThreads).WithAccessed(arg&2 != 0).WithDirty(arg&4 != 0)
		r.Install(tid, vp, p)
	case 2:
		write := arg&2 != 0
		want, wantOK := touchReference(r, tid, vp, write)
		got, ok := r.Touch(tid, vp, write)
		if ok != wantOK || got != want {
			t.Fatalf("Touch(%d, %#x) = %+v,%t, want %+v,%t", tid, uint64(vp), got, ok, want, wantOK)
		}
		if p, _ := r.Lookup(vp); ok && p != got.PTE {
			t.Fatalf("Touch(%d, %#x) returned %v, the table holds %v", tid, uint64(vp), got.PTE, p)
		}
	case 3:
		r.Unmap(vp)
	case 4:
		// Clear the A/D bits of every other page the sweep visits.
		r.SweepAccessed(func(vp VPage, p PTE) PTE {
			if vp&1 == VPage(arg&1) {
				return p.WithAccessed(false).WithDirty(false)
			}
			return p
		})
	case 5:
		// Round-trip through a checkpoint in place: Restore
		// rebuilds every leaf, so no Touch memo may survive it.
		tables := r.TotalTables()
		e := &checkpoint.Encoder{}
		r.Snapshot(e)
		d := checkpoint.NewDecoder(e.Bytes())
		if err := r.Restore(d); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if r.TotalTables() != tables {
			t.Fatalf("restore built %d tables, the table had %d", r.TotalTables(), tables)
		}
	}
}

// touchReference is what Touch(tid, vp, write) returns, computed
// without the leaf memo from Lookup and the leaf's link set before the
// call.
func touchReference(r *Replicated, tid int, vp VPage, write bool) (TouchResult, bool) {
	p, ok := r.Lookup(vp)
	if !ok {
		return TouchResult{}, false
	}
	res := TouchResult{LinkedLeaf: !r.threadMapsLeaf(tid, vp)}
	if !p.Shared() && p.Owner() != uint8(tid) {
		p = p.WithOwner(OwnerShared)
		res.BecameShared = true
	}
	res.PTE = p.WithAccessed(true).WithDirty(p.Dirty() || write)
	return res, true
}

// checkTableMasks asserts the leaf masks and counts agree with the
// PTEs: CheckMasks passes, Range visits exactly the pages Lookup finds,
// PresentFrom's words hold exactly Range's pages at or above a start,
// Words yields exactly Range's pages as present bits and its fast-tier
// pages as fast bits, in nonzero, aligned, ascending words, Mapped and
// FastMapped match a recount, a SweepAccessed that changes nothing
// visits exactly the PTEs with A or D set, and a cursor finds what
// Lookup finds.
func checkTableMasks(t *testing.T, r *Replicated) {
	t.Helper()
	if err := r.CheckMasks(); err != nil {
		t.Fatal(err)
	}
	var fast, ad, mapped []VPage
	r.Range(func(vp VPage, p PTE) bool {
		mapped = append(mapped, vp)
		if p.Frame().Tier == mem.TierFast {
			fast = append(fast, vp)
		}
		if p.Accessed() || p.Dirty() {
			ad = append(ad, vp)
		}
		return true
	})
	var lookedUp []VPage
	end := VPage(opsPages)
	if n := len(mapped); n > 0 {
		end = max(end, mapped[n-1]+1)
	}
	for vp := VPage(0); vp < end; vp++ {
		if _, ok := r.Lookup(vp); ok {
			lookedUp = append(lookedUp, vp)
		}
	}
	if !slices.Equal(mapped, lookedUp) {
		t.Fatalf("Range visited %v, Lookup finds %v", mapped, lookedUp)
	}
	for _, start := range []VPage{0, 1, 63, 64, EntriesPerTable + 130, opsPages - 1, opsPages + 5} {
		var got []VPage
		r.PresentFrom(start, func(base VPage, word uint64) bool {
			if base&63 != 0 || word == 0 {
				t.Fatalf("PresentFrom(%d) yielded word %#x at base %#x", start, word, uint64(base))
			}
			for ; word != 0; word &= word - 1 {
				got = append(got, base+VPage(bits.TrailingZeros64(word)))
			}
			return true
		})
		i, _ := slices.BinarySearch(mapped, start)
		if want := mapped[i:]; !slices.Equal(got, want) {
			t.Fatalf("PresentFrom(%d) yielded %v, want %v", start, got, want)
		}
	}
	var gotPresent, gotFast, gotAD []VPage
	r.Words(func(base VPage, present, fast uint64) {
		if base&63 != 0 || present == 0 || fast&^present != 0 {
			t.Fatalf("Words yielded present %#x, fast %#x at base %#x", present, fast, uint64(base))
		}
		for ; present != 0; present &= present - 1 {
			gotPresent = append(gotPresent, base+VPage(bits.TrailingZeros64(present)))
		}
		for ; fast != 0; fast &= fast - 1 {
			gotFast = append(gotFast, base+VPage(bits.TrailingZeros64(fast)))
		}
	})
	r.SweepAccessed(func(vp VPage, p PTE) PTE {
		gotAD = append(gotAD, vp)
		return p
	})
	if !slices.Equal(gotPresent, mapped) {
		t.Fatalf("Words' present bits are %v, Range visited %v", gotPresent, mapped)
	}
	if !slices.Equal(gotFast, fast) {
		t.Fatalf("Words' fast bits are %v, fast pages are %v", gotFast, fast)
	}
	if len(mapped) != r.Mapped() {
		t.Fatalf("Mapped = %d, %d present pages", r.Mapped(), len(mapped))
	}
	if len(fast) != r.FastMapped() {
		t.Fatalf("FastMapped = %d, %d fast pages", r.FastMapped(), len(fast))
	}
	if !slices.Equal(gotAD, ad) {
		t.Fatalf("SweepAccessed visited %v, A/D pages are %v", gotAD, ad)
	}
}

// TestLeafMasksDifferential runs seeded random operation sequences
// through runTableOps.
func TestLeafMasksDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 4*600)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		runTableOps(t, data)
	}
}

// FuzzTableOps feeds runTableOps arbitrary operation sequences.
func FuzzTableOps(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 5, 1, 0, 2, 4, 0, 0, 0})
	f.Add([]byte{1, 0xff, 1, 0x37, 2, 0xff, 1, 0, 4, 0, 0, 1, 3, 0xff, 1, 0})
	f.Fuzz(runTableOps)
}

// TestSweepAccessedRejectsOtherChanges pins SweepAccessed's contract:
// the callback may only clear A/D bits.
func TestSweepAccessedRejectsOtherChanges(t *testing.T) {
	r := NewReplicated(1)
	r.Map(0, 3, NewPTE(fastFrame(1), 0))
	r.Touch(0, 3, false)
	defer func() {
		if recover() == nil {
			t.Fatal("remapping sweep did not panic")
		}
	}()
	r.SweepAccessed(func(_ VPage, p PTE) PTE { return p.WithFrame(fastFrame(2)) })
}

// TestMaskWalksAllocateNothing pins the zero-alloc contract of the
// mask walks.
func TestMaskWalksAllocateNothing(t *testing.T) {
	r := NewReplicated(2)
	for vp := VPage(0); vp < 3*EntriesPerTable; vp += 3 {
		r.Map(int(vp)%2, vp, NewPTE(mem.Frame{Tier: mem.TierID(vp % 2), Index: uint32(vp)}, 0))
	}
	n := 0
	if a := testing.AllocsPerRun(20, func() { r.Words(func(_ VPage, _, fast uint64) { n += bits.OnesCount64(fast) }) }); a != 0 {
		t.Errorf("Words: %v allocs/run", a)
	}
	touchAndSweep := func() {
		for vp := VPage(0); vp < 3*EntriesPerTable; vp += 7 {
			r.Touch(0, vp, vp%2 == 0)
		}
		r.SweepAccessed(func(_ VPage, p PTE) PTE { return p.WithAccessed(false).WithDirty(false) })
	}
	if a := testing.AllocsPerRun(20, touchAndSweep); a != 0 {
		t.Errorf("SweepAccessed: %v allocs/run", a)
	}
}
