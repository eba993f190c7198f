package pagetable

import (
	"bytes"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
)

// buildReplicated populates a replicated table with a mix of shared and
// thread-private mappings across several leaves.
func buildReplicated(t testing.TB, nthreads int) *Replicated {
	t.Helper()
	r := NewReplicated(nthreads)
	for i := 0; i < 900; i++ {
		vp := VPage(i * 7) // spread across leaves
		owner := uint8(i % nthreads)
		if i%4 == 0 {
			owner = OwnerShared
		}
		pte := NewPTE(mem.Frame{Tier: mem.TierID(i % int(mem.NumTiers)), Index: uint32(i)}, owner)
		tid := i % nthreads
		if err := r.Map(tid, vp, pte); err != nil {
			t.Fatal(err)
		}
		if i%5 == 0 {
			r.Install((tid+1)%nthreads, vp, pte)
		}
	}
	return r
}

func dumpTable(r *Replicated) map[VPage]PTE {
	out := make(map[VPage]PTE)
	r.Range(func(vp VPage, p PTE) bool {
		out[vp] = p
		return true
	})
	return out
}

func TestReplicatedSnapshotRoundTrip(t *testing.T) {
	const nthreads = 6
	src := buildReplicated(t, nthreads)

	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("pt", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("pt", 1)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewReplicated(nthreads)
	if err := dst.Restore(d); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(dumpTable(src), dumpTable(dst)) {
		t.Fatal("PTE contents diverged")
	}
	if src.Mapped() != dst.Mapped() || src.sharedLeaves() != dst.sharedLeaves() ||
		src.TotalTables() != dst.TotalTables() {
		t.Fatalf("structure: mapped %d/%d leaves %d/%d tables %d/%d",
			src.Mapped(), dst.Mapped(), src.sharedLeaves(), dst.sharedLeaves(),
			src.TotalTables(), dst.TotalTables())
	}
	// Shootdown scopes (the per-leaf thread links) must survive — they
	// decide future IPI fan-out.
	for i := 0; i < 900; i += 17 {
		vp := VPage(i * 7)
		a, b := src.AppendShootdownScope(nil, vp), dst.AppendShootdownScope(nil, vp)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("shootdown scope for %d: %v != %v", vp, a, b)
		}
	}
}

func TestReplicatedRestoreRejectsBadSnapshots(t *testing.T) {
	src := buildReplicated(t, 4)
	e := &checkpoint.Encoder{}
	src.Snapshot(e)
	blob := e.Bytes()

	// Thread-count mismatch.
	if err := NewReplicated(8).Restore(checkpoint.NewDecoder(blob)); err == nil {
		t.Fatal("thread-count mismatch accepted")
	}
	// Truncations anywhere in the payload must error, never panic.
	for cut := 0; cut < len(blob); cut += 97 {
		if err := NewReplicated(4).Restore(checkpoint.NewDecoder(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// craftedLinks encodes a section whose leaves each sit in their own
// 1 GiB region and are linked by every one of nthreads threads: each
// 24-byte leaf record asks for a private L2 table per thread.
func craftedLinks(nthreads, leaves int) []byte {
	var set threadSet
	for tid := 0; tid < nthreads; tid++ {
		set.add(tid)
	}
	e := &checkpoint.Encoder{}
	e.Int(nthreads)
	e.Int(leaves)
	for i := 0; i < leaves; i++ {
		e.U64(uint64(i) << 9)
		e.U64(set.bits[0])
		e.U64(set.bits[1])
	}
	e.Int(0)
	return e.Bytes()
}

// TestReplicatedRestoreBoundsPrivateTables pins the restore's table
// budget: a 48 KB section claiming 2000 far-apart leaves linked by 127
// threads (about 250,000 private tables, 1 GB) is rejected before any
// table is built, while a table whose every thread links one shared
// page — the most private tables per record a real run produces —
// restores.
func TestReplicatedRestoreBoundsPrivateTables(t *testing.T) {
	blob := craftedLinks(127, 2000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := NewReplicated(127).Restore(checkpoint.NewDecoder(blob))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("crafted link section accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
		t.Fatalf("rejecting a %d-byte section allocated %d bytes", len(blob), grew)
	}

	src := NewReplicated(MaxThreads)
	if err := src.Map(0, 7, NewPTE(mem.Frame{Tier: mem.TierFast, Index: 1}, 0)); err != nil {
		t.Fatal(err)
	}
	for tid := 1; tid < MaxThreads; tid++ {
		src.Touch(tid, 7, false)
	}
	e := &checkpoint.Encoder{}
	src.Snapshot(e)
	dst := NewReplicated(MaxThreads)
	if err := dst.Restore(checkpoint.NewDecoder(e.Bytes())); err != nil {
		t.Fatal(err)
	}
	if dst.TotalTables() != src.TotalTables() {
		t.Fatalf("restored %d tables, want %d", dst.TotalTables(), src.TotalTables())
	}
}

// FuzzReplicatedRestore feeds Replicated.Restore arbitrary bytes for a
// table of 1..MaxThreads threads. Restore must never panic, and a blob
// it accepts — Restore and Close both succeed — must re-encode
// byte-identically through Snapshot, and its rebuilt leaf masks must
// agree with its PTEs: the decoder admits exactly the states the
// encoder writes; its Mapped and FastMapped counts match a recount of
// the restored PTEs (checkTableMasks). The restore's table budget keeps
// one execution's memory proportional to the blob.
func FuzzReplicatedRestore(f *testing.F) {
	for _, n := range []int{4, 6} {
		e := &checkpoint.Encoder{}
		buildReplicated(f, n).Snapshot(e)
		blob := e.Bytes()
		f.Add(uint8(n-1), blob)
		f.Add(uint8(2*n-1), blob) // thread-count mismatch
		for cut := 0; cut < len(blob); cut += 97 {
			f.Add(uint8(n-1), blob[:cut])
		}
	}
	// Two leaf indices whose base pages differ only above MaxVPage.
	e := &checkpoint.Encoder{}
	e.Int(1)
	e.Int(2)
	for _, li := range []uint64{0, 1 << 55} {
		e.U64(li)
		e.U64(1)
		e.U64(0)
	}
	e.Int(0)
	f.Add(uint8(0), e.Bytes())
	f.Add(uint8(126), craftedLinks(127, 2000))
	f.Fuzz(func(t *testing.T, threads uint8, blob []byte) {
		r := NewReplicated(int(threads)%MaxThreads + 1)
		d := checkpoint.NewDecoder(blob)
		if r.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		r.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
		checkTableMasks(t, r)
	})
}

// TestReplicatedRestoreErrorTexts pins Restore's PTE-loop errors, in
// the order it checks them, across leaves: the link check runs once
// per leaf, so a PTE in an unlinked leaf after a linked one must still
// fail.
func TestReplicatedRestoreErrorTexts(t *testing.T) {
	section := func(ptes ...uint64) []byte {
		e := &checkpoint.Encoder{}
		e.Int(1)
		e.Int(2) // leaves 0 and 2, both linked by thread 0
		for _, li := range []uint64{0, 2} {
			e.U64(li)
			e.U64(1)
			e.U64(0)
		}
		e.Int(len(ptes) / 2)
		for _, v := range ptes {
			e.U64(v)
		}
		return e.Bytes()
	}
	pte := func(owner uint8) uint64 { return uint64(NewPTE(mem.Frame{Index: 1}, owner)) }
	for _, c := range []struct {
		blob []byte
		want string
	}{
		{section(5, pte(0), 3, pte(0)), "pagetable: vpages out of order (3 after 5)"},
		{section(5, pte(0), 0x201, pte(0)), "pagetable: PTE at 0x201 in unlinked leaf"},
		{section(0x201, pte(0)), "pagetable: PTE at 0x201 in unlinked leaf"},
		{section(5, pte(0), 6, pte(0), 0x403, pte(5)), "pagetable: PTE at 0x403 owned by thread 5 of 1"},
		{section(5, pte(0), 0x402, pte(0)|2<<pteShiftTier), "pagetable: PTE at 0x402 names tier 2 of 2"},
		{section(5, pte(0), 0x400, 0), "pagetable: restoring PTE: pagetable: mapping non-present PTE at 0x400"},
	} {
		err := NewReplicated(1).Restore(checkpoint.NewDecoder(c.blob))
		if err == nil || err.Error() != c.want {
			t.Errorf("Restore error = %v, want %q", err, c.want)
		}
	}
}

// TestMapCursorMatchesMap maps the same page sequence — runs within
// leaves, steps across them, a jump back, repeats and non-present
// entries — through Map and through one MapCursor: every error and the
// resulting table must agree.
func TestMapCursorMatchesMap(t *testing.T) {
	rng := sim.NewRNG(3)
	want, got := NewReplicated(opsThreads), NewReplicated(opsThreads)
	c := got.MapCursor()
	vp := VPage(0)
	for i := 0; i < 3000; i++ {
		vp += VPage(rng.Intn(3))
		if i == 2000 {
			vp -= 1500
		}
		tid := rng.Intn(opsThreads)
		p := NewPTE(mem.Frame{Tier: mem.TierID(i & 1), Index: uint32(i)}, 0)
		if i%97 == 0 {
			p = 0
		}
		errWant, errGot := want.Map(tid, vp, p), c.Map(tid, vp, p)
		if (errWant == nil) != (errGot == nil) || errWant != nil && errWant.Error() != errGot.Error() {
			t.Fatalf("map %d at %#x: cursor error %v, Map error %v", i, uint64(vp), errGot, errWant)
		}
	}
	ew, eg := &checkpoint.Encoder{}, &checkpoint.Encoder{}
	want.Snapshot(ew)
	got.Snapshot(eg)
	if !bytes.Equal(ew.Bytes(), eg.Bytes()) {
		t.Fatal("cursor-mapped table snapshots differently")
	}
	for tid := 0; tid < opsThreads; tid++ {
		if got.upperTables(tid) != want.upperTables(tid) {
			t.Fatalf("thread %d: %d upper tables, want %d", tid, got.upperTables(tid), want.upperTables(tid))
		}
	}
	if got.TotalTables() != want.TotalTables() || got.Mapped() != want.Mapped() || got.FastMapped() != want.FastMapped() {
		t.Fatal("cursor-mapped table counts differ")
	}
	checkTableMasks(t, got)
}

// referenceSnapshot is the encoder Snapshot replaced: it gathers each
// leaf's linking threads into a map keyed by leaf index, sorts the
// keys and writes the leaf records in that order, then the PTEs. The
// map here is read from the threads' private trees, not from the
// leaves' link sets, so the two encoders share no link state.
func referenceSnapshot(r *Replicated) []byte {
	links := make(map[uint64]*threadSet)
	for tid, root := range r.roots {
		for i4, l3 := range root.l3s {
			if l3 == nil {
				continue
			}
			for i3, l2 := range l3.l2s {
				if l2 == nil {
					continue
				}
				for i2, leaf := range l2.leaves {
					if leaf == nil {
						continue
					}
					li := uint64(i4)<<18 | uint64(i3)<<9 | uint64(i2)
					if links[li] == nil {
						links[li] = &threadSet{}
					}
					links[li].add(tid)
				}
			}
		}
	}
	leaves := make([]uint64, 0, len(links))
	for li := range links {
		leaves = append(leaves, li)
	}
	sort.Slice(leaves, func(i, j int) bool { return leaves[i] < leaves[j] })
	e := &checkpoint.Encoder{}
	e.Int(r.nthreads)
	e.Int(len(leaves))
	for _, li := range leaves {
		e.U64(li)
		e.U64(links[li].bits[0])
		e.U64(links[li].bits[1])
	}
	e.Int(r.Mapped())
	r.Range(func(vp VPage, p PTE) bool {
		e.U64(uint64(vp))
		e.U64(uint64(p))
		return true
	})
	return e.Bytes()
}

// TestSnapshotMatchesReference runs the FuzzTableOps seeds and seeded
// random operation sequences and, after every operation, holds
// Snapshot's bytes and SnapshotSize to the map-and-sort reference.
func TestSnapshotMatchesReference(t *testing.T) {
	seqs := [][]byte{
		{0, 1, 0, 0, 5, 1, 0, 2, 4, 0, 0, 0},
		{1, 0xff, 1, 0x37, 2, 0xff, 1, 0, 4, 0, 0, 1, 3, 0xff, 1, 0},
	}
	for seed := uint64(1); seed <= 8; seed++ {
		rng := sim.NewRNG(seed)
		data := make([]byte, 4*600)
		for i := range data {
			data[i] = byte(rng.Uint64())
		}
		seqs = append(seqs, data)
	}
	for _, data := range seqs {
		r := NewReplicated(opsThreads)
		for ; len(data) >= 4; data = data[4:] {
			applyTableOp(t, r, data[:4])
			e := &checkpoint.Encoder{}
			r.Snapshot(e)
			want := referenceSnapshot(r)
			if !bytes.Equal(e.Bytes(), want) {
				t.Fatalf("after op %x: Snapshot\n %x\nreference\n %x", data[:4], e.Bytes(), want)
			}
			if r.SnapshotSize() != len(want) {
				t.Fatalf("after op %x: SnapshotSize %d, reference wrote %d bytes", data[:4], r.SnapshotSize(), len(want))
			}
		}
	}
}
