package pagetable

import (
	"bytes"
	"reflect"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
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
	if src.Mapped() != dst.Mapped() || src.SharedLeaves() != dst.SharedLeaves() ||
		src.TotalTables() != dst.TotalTables() {
		t.Fatalf("structure: mapped %d/%d leaves %d/%d tables %d/%d",
			src.Mapped(), dst.Mapped(), src.SharedLeaves(), dst.SharedLeaves(),
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

// FuzzReplicatedRestore feeds Replicated.Restore arbitrary bytes for a
// table of 1..MaxThreads threads. Restore must never panic, and a blob
// it accepts — Restore and Close both succeed — must re-encode
// byte-identically through Snapshot: the decoder admits exactly the
// states the encoder writes. Every 24-byte leaf record can make each
// linking thread allocate two 4 KiB upper-level tables, so blobs
// claiming more than 16 leaves are skipped to keep one execution's
// memory in the megabytes.
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
	f.Fuzz(func(t *testing.T, threads uint8, blob []byte) {
		head := checkpoint.NewDecoder(blob)
		head.Int() // thread count
		if head.Int() > 16 {
			return
		}
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
	})
}
