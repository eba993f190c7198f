package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc64"
	"io"
	"math/rand"
	"runtime"
	"testing"
)

// referenceVerify is the two-pass verifier NewReader replaced: read
// with io.ReadAll, checksum the whole body, then walk the manifest and
// checksum every payload again. NewReader must accept exactly the blobs
// it accepts and reject the others with the same error text.
func referenceVerify(r io.Reader) error {
	blob, err := io.ReadAll(r)
	if err != nil {
		return fmt.Errorf("checkpoint: reading blob: %w", err)
	}
	if len(blob) < len(Magic)+8 || string(blob[:len(Magic)]) != Magic {
		return fmt.Errorf("checkpoint: bad magic (not a checkpoint blob)")
	}
	body, trailer := blob[:len(blob)-8], blob[len(blob)-8:]
	if crc64.Checksum(body, crcTable) != binary.LittleEndian.Uint64(trailer) {
		return fmt.Errorf("checkpoint: body checksum mismatch (corrupt or truncated blob)")
	}
	d := NewDecoder(body)
	d.take(len(Magic))
	if v := d.U32(); d.err == nil && v != Version {
		return fmt.Errorf("checkpoint: unsupported format version %d (want %d)", v, Version)
	}
	n := d.U32()
	if d.err == nil && uint64(n) > uint64(d.Remaining()) {
		d.fail("section count %d exceeds blob size", n)
	}
	seen := make(map[string]bool)
	for i := 0; d.err == nil && i < int(n); i++ {
		nameLen := d.U64()
		if d.err == nil && nameLen > maxSectionName {
			d.fail("section name length %d exceeds limit", nameLen)
			break
		}
		name := string(d.take(int(nameLen)))
		d.U32()
		payload := d.Bytes64()
		sum := d.U64()
		if d.err != nil {
			break
		}
		if seen[name] {
			return fmt.Errorf("checkpoint: duplicate section %q", name)
		}
		if crc64.Checksum(payload, crcTable) != sum {
			return fmt.Errorf("checkpoint: section %q checksum mismatch (corrupt blob)", name)
		}
		seen[name] = true
	}
	if d.err != nil {
		return d.err
	}
	if d.Remaining() != 0 {
		return fmt.Errorf("checkpoint: %d trailing bytes after last section", d.Remaining())
	}
	return nil
}

// threeSectionBlob is buildBlob's two sections plus an empty third and
// a fourth larger than 2 KiB, so payload checksums take crc64's
// slicing path and the combination sees an empty payload.
func threeSectionBlob(t testing.TB) []byte {
	w := NewWriter()
	e := w.Section("alpha", 1)
	e.U8(7)
	e.String("hello")
	w.Section("empty", 2)
	big := w.Section("big", 5)
	for i := 0; i < 300; i++ {
		big.U64(uint64(i) * 0x9e3779b97f4a7c15)
	}
	w.Section("beta", 3).Int(12345)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// reseal rewrites a blob's trailing checksum to match its body, so a
// mutation reaches the structural checks behind the body checksum.
func reseal(blob []byte) []byte {
	if len(blob) < 8 {
		return blob
	}
	body := blob[:len(blob)-8]
	binary.LittleEndian.PutUint64(blob[len(blob)-8:], crc64.Checksum(body, crcTable))
	return blob
}

// sameVerdict fails t unless NewReader and referenceVerify agree on
// blob: both accept, or both reject with the same error text. It
// returns NewReader's error.
func sameVerdict(t testing.TB, what string, blob []byte) error {
	_, err := NewReader(bytes.NewReader(blob))
	ref := referenceVerify(bytes.NewReader(blob))
	if (err == nil) != (ref == nil) || (err != nil && err.Error() != ref.Error()) {
		t.Fatalf("%s: NewReader says %v, reference says %v", what, err, ref)
	}
	return err
}

// TestReaderMatchesReference compares NewReader against the two-pass
// reference on every prefix and every single-byte flip of a blob, both
// as is (the body checksum catches the damage) and resealed (the
// structural checks behind it must report what the reference reports).
func TestReaderMatchesReference(t *testing.T) {
	blob := threeSectionBlob(t)
	sameVerdict(t, "intact", blob)
	for n := 0; n <= len(blob); n++ {
		sameVerdict(t, fmt.Sprintf("prefix %d", n), blob[:n])
		sameVerdict(t, fmt.Sprintf("resealed prefix %d", n), reseal(bytes.Clone(blob[:n])))
	}
	for i := range blob {
		for _, mask := range []byte{0x01, 0x5a, 0x80, 0xff} {
			mut := bytes.Clone(blob)
			mut[i] ^= mask
			sameVerdict(t, fmt.Sprintf("flip %#x at %d", mask, i), mut)
			sameVerdict(t, fmt.Sprintf("resealed flip %#x at %d", mask, i), reseal(mut))
		}
	}
}

// TestReaderFallsBackOnDuplicate reseals a blob whose second section
// name repeats the first: the walk fails on the duplicate, and the
// error must be the duplicate's, not a body checksum mismatch.
func TestReaderFallsBackOnDuplicate(t *testing.T) {
	w := NewWriter()
	w.Section("aa", 1).U8(1)
	w.Section("ab", 1).U8(2)
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	i := bytes.LastIndex(blob, []byte("ab"))
	blob[i+1] = 'a'
	_, err := NewReader(bytes.NewReader(reseal(blob)))
	if err == nil || err.Error() != `checkpoint: duplicate section "aa"` {
		t.Fatalf("err = %v", err)
	}
	sameVerdict(t, "resealed duplicate", blob)
}

// TestCRCCombine checks the combination against checksumming the
// concatenation, over random splits, empty halves and lengths either
// side of powers of two.
func TestCRCCombine(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := make([]byte, 1<<14+3)
	rng.Read(data)
	lens := []int{0, 1, 2, 7, 8, 9, 63, 64, 65, 2047, 2048, 2049, 4096, len(data)}
	for i := 0; i < 200; i++ {
		lens = append(lens, rng.Intn(len(data)+1))
	}
	for _, n := range lens {
		whole := data[:n]
		cuts := []int{0, n, n / 2}
		for j := 0; j < 4; j++ {
			cuts = append(cuts, rng.Intn(n+1))
		}
		for _, c := range cuts {
			a, b := whole[:c], whole[c:]
			got := crcCombine(crc64.Checksum(a, crcTable), crc64.Checksum(b, crcTable), len(b))
			if want := crc64.Checksum(whole, crcTable); got != want {
				t.Fatalf("len %d split %d: combined %#x, want %#x", n, c, got, want)
			}
		}
	}
}

// totalAlloc returns the bytes f allocates, from runtime.MemStats.
func totalAlloc(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestReaderAllocatesBlobOnce pins NewReader's allocation: one buffer
// the size of the blob (rounded to the runtime's 8 KiB pages, as every
// large allocation is), plus at most 4 KiB for the manifest maps.
func TestReaderAllocatesBlobOnce(t *testing.T) {
	w := NewWriter()
	for i := 0; i < 8; i++ {
		e := w.Section(fmt.Sprintf("s%d", i), 1)
		for j := 0; j < 3000*(i+1); j++ {
			e.U64(uint64(i*j) + 1)
		}
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	var err error
	got := totalAlloc(func() { _, err = NewReader(bytes.NewReader(blob)) })
	if err != nil {
		t.Fatal(err)
	}
	const page = 8 << 10
	limit := uint64((len(blob)+page-1)/page*page + 4<<10)
	if got > limit {
		t.Fatalf("NewReader of a %d-byte blob allocated %d bytes, limit %d", len(blob), got, limit)
	}
}

// FuzzCheckpointReader feeds arbitrary bytes to NewReader, as is and
// resealed: it must never panic, must agree with the two-pass
// reference, and an accepted blob rebuilt through a Writer from its
// manifest order must come out byte-identical.
func FuzzCheckpointReader(f *testing.F) {
	blob := buildBlob(f)
	f.Add(blob)
	f.Add(threeSectionBlob(f))
	for n := 0; n < len(blob); n += 7 {
		f.Add(blob[:n])
	}
	for i := 0; i < len(blob); i += 5 {
		mut := bytes.Clone(blob)
		mut[i] ^= 0x5a
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, in := range [][]byte{data, reseal(bytes.Clone(data))} {
			if sameVerdict(t, "input", in) != nil {
				continue
			}
			if out := rebuild(t, in); !bytes.Equal(out, in) {
				t.Fatalf("rebuilt blob differs:\n in  %x\n out %x", in, out)
			}
		}
	})
}

// rebuild re-walks an accepted blob's manifest with a Decoder and
// writes its sections, in manifest order, through a fresh Writer.
func rebuild(t *testing.T, blob []byte) []byte {
	d := NewDecoder(blob)
	d.take(len(Magic) + 4)
	n := int(d.U32())
	w := NewWriter()
	for i := 0; i < n; i++ {
		name := d.String()
		version := d.U32()
		e := w.Section(name, version)
		e.buf = append(e.buf, d.Bytes64()...)
		d.U64()
	}
	if d.Err() != nil {
		t.Fatalf("re-walk of an accepted blob: %v", d.Err())
	}
	var buf bytes.Buffer
	if _, err := w.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
