package mem

import (
	"bytes"
	"strings"
	"testing"

	"vulcan/internal/checkpoint"
)

func tinyConfig() [NumTiers]TierConfig {
	return [NumTiers]TierConfig{
		TierFast: {Name: "f", CapacityPages: 64, UnloadedLatency: 70, BandwidthGBs: 205},
		TierSlow: {Name: "s", CapacityPages: 128, UnloadedLatency: 162, BandwidthGBs: 25},
	}
}

// scramble drives the tier set into a mid-run state: interleaved
// allocations and frees, building a non-trivial LIFO free stack.
func scramble(ts *Tiers) []Frame {
	var live []Frame
	for i := 0; i < 48; i++ {
		f, ok := ts.AllocPreferFast()
		if !ok {
			break
		}
		live = append(live, f)
	}
	kept := live[:0]
	for i, f := range live {
		if i%3 == 1 {
			ts.Free(f)
			continue
		}
		kept = append(kept, f)
	}
	return kept
}

func tiersRoundTrip(t *testing.T, src, dst *Tiers) error {
	t.Helper()
	w := checkpoint.NewWriter()
	src.Snapshot(w.Section("mem", 1))
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := cr.Section("mem", 1)
	if err != nil {
		t.Fatal(err)
	}
	return dst.Restore(d)
}

// TestTiersSnapshotRoundTrip asserts the determinism contract: a
// restored tier set hands out the exact same frame sequence as the
// original, and the usage count survives.
func TestTiersSnapshotRoundTrip(t *testing.T) {
	src := NewTiers(tinyConfig())
	scramble(src)

	dst := NewTiers(tinyConfig())
	if err := tiersRoundTrip(t, src, dst); err != nil {
		t.Fatal(err)
	}

	for id := TierID(0); id < NumTiers; id++ {
		a, b := src.Tier(id), dst.Tier(id)
		if a.Used() != b.Used() || a.FreePages() != b.FreePages() {
			t.Fatalf("tier %s: used/free %d/%d != %d/%d",
				id, a.Used(), a.FreePages(), b.Used(), b.FreePages())
		}
	}

	// The free stacks must replay in identical LIFO order.
	for i := 0; ; i++ {
		fa, oka := src.AllocPreferFast()
		fb, okb := dst.AllocPreferFast()
		if oka != okb {
			t.Fatalf("alloc %d: ok %v != %v", i, oka, okb)
		}
		if !oka {
			break
		}
		if fa != fb {
			t.Fatalf("alloc %d: frame %v != %v", i, fa, fb)
		}
	}
}

func TestTiersRestoreCapacityMismatch(t *testing.T) {
	src := NewTiers(tinyConfig())
	scramble(src)

	cfg := tinyConfig()
	cfg[TierFast].CapacityPages = 32 // configured smaller than the checkpoint
	dst := NewTiers(cfg)
	if err := tiersRoundTrip(t, src, dst); err == nil {
		t.Fatal("capacity mismatch accepted")
	}
}

// TestTierRestoreCorruptionErrors walks every truncation point, a
// frame-out-of-range corruption and a repeated free frame through
// Restore; all must error, never panic.
func TestTierRestoreCorruptionErrors(t *testing.T) {
	src := NewTiers(tinyConfig())
	scramble(src)
	e := &checkpoint.Encoder{}
	src.Fast().Snapshot(e)
	blob := e.Bytes()

	for cut := 0; cut < len(blob); cut += 7 {
		dst := NewTiers(tinyConfig())
		if err := dst.Fast().Restore(checkpoint.NewDecoder(blob[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}

	// Flip a free-list entry far out of range (the free list starts
	// after capacity+used+count, three 8-byte ints).
	bad := append([]byte(nil), blob...)
	for i := 24; i < 28; i++ {
		bad[i] = 0xff
	}
	dst := NewTiers(tinyConfig())
	if err := dst.Fast().Restore(checkpoint.NewDecoder(bad)); err == nil {
		t.Fatal("out-of-range free frame accepted")
	}

	dst = NewTiers(tinyConfig())
	err := dst.Fast().Restore(checkpoint.NewDecoder(repeatedFreeFrame()))
	if err == nil || !strings.Contains(err.Error(), "tier fast") {
		t.Fatalf("repeated free frame: err = %v, want an error naming the tier", err)
	}
}

// repeatedFreeFrame encodes a fast-tier section whose free list names
// frame 0 four times: the range and used+free==capacity checks pass,
// but Alloc would then hand frame 0 to four owners.
func repeatedFreeFrame() []byte {
	e := &checkpoint.Encoder{}
	e.Int(64) // capacity
	e.Int(60) // used
	e.Int(4)  // free count
	for i := 0; i < 4; i++ {
		e.U32(0)
	}
	return e.Bytes()
}

// FuzzTiersRestore feeds arbitrary bytes to Tiers.Restore. It must
// never panic, and an accepted blob must re-encode byte for byte with
// every free frame distinct.
func FuzzTiersRestore(f *testing.F) {
	src := NewTiers(tinyConfig())
	scramble(src)
	e := &checkpoint.Encoder{}
	src.Snapshot(e)
	blob := e.Bytes()
	f.Add(blob)
	for cut := 0; cut < len(blob); cut += 29 {
		f.Add(blob[:cut])
	}
	slow := &checkpoint.Encoder{}
	src.Slow().Snapshot(slow)
	f.Add(append(repeatedFreeFrame(), slow.Bytes()...))
	f.Fuzz(func(t *testing.T, blob []byte) {
		ts := NewTiers(tinyConfig())
		d := checkpoint.NewDecoder(blob)
		if ts.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		ts.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
		for id := TierID(0); id < NumTiers; id++ {
			tr := ts.Tier(id)
			seen := make(map[uint32]bool, tr.FreePages())
			for range tr.FreePages() {
				idx, _ := tr.Alloc()
				if seen[idx] {
					t.Fatalf("tier %s hands out frame %d twice", id, idx)
				}
				seen[idx] = true
			}
		}
	})
}
