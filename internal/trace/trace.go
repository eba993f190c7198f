// Package trace records and replays page-reference streams. Traces make
// experiments exactly reproducible across machines and let users feed
// captured or externally generated access patterns into the simulator in
// place of the synthetic generators.
//
// The binary format is compact and self-describing:
//
//	magic "VTRC" | version u8 | pages varint | count varint |
//	per ref: page varint (zig-zag delta) | flags u8
//
// where flags packs the write bit (0x80) and the LLC-hit probability
// quantized to 7 bits (0..127 ≈ 0.0..1.0).
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"vulcan/internal/workload"
)

var magic = [4]byte{'V', 'T', 'R', 'C'}

const version = 1

// maxPrealloc caps the refs Read reserves up front from the header's
// count, so a count the body cannot back fails at EOF instead of
// allocating for refs that never arrive.
const maxPrealloc = 1 << 16

// Trace is an in-memory page-reference stream.
type Trace struct {
	pages int // region size the refs were drawn from
	refs  []workload.Ref
}

// New creates an empty trace over a region of pages.
func New(pages int) *Trace {
	if pages <= 0 {
		panic("trace: non-positive region")
	}
	return &Trace{pages: pages}
}

// Capture draws n references from g into a new trace.
func Capture(g workload.Generator, n int) *Trace {
	t := New(g.Pages())
	for i := 0; i < n; i++ {
		t.Append(g.Next())
	}
	return t
}

// Append adds one reference.
func (t *Trace) Append(r workload.Ref) {
	if r.Page < 0 || r.Page >= t.pages {
		panic(fmt.Sprintf("trace: page %d outside region %d", r.Page, t.pages))
	}
	t.refs = append(t.refs, r)
}

// Len returns the number of recorded references.
func (t *Trace) Len() int { return len(t.refs) }

// Pages returns the region size.
func (t *Trace) Pages() int { return t.pages }

// At returns reference i.
func (t *Trace) At(i int) workload.Ref { return t.refs[i] }

// Stats summarizes a trace.
type Stats struct {
	Refs        int
	UniquePages int
	WriteFrac   float64
	MeanLLCHit  float64
}

// Stats computes summary statistics.
func (t *Trace) Stats() Stats {
	seen := make(map[int]struct{})
	writes, llc := 0, 0.0
	for _, r := range t.refs {
		seen[r.Page] = struct{}{}
		if r.Write {
			writes++
		}
		llc += r.LLCHitProb
	}
	s := Stats{Refs: len(t.refs), UniquePages: len(seen)}
	if len(t.refs) > 0 {
		s.WriteFrac = float64(writes) / float64(len(t.refs))
		s.MeanLLCHit = llc / float64(len(t.refs))
	}
	return s
}

// quantize/dequantize the LLC probability to 7 bits.
func quantizeLLC(p float64) byte {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return byte(p*127 + 0.5)
}

func dequantizeLLC(b byte) float64 { return float64(b&0x7F) / 127 }

// WriteTo serializes the trace. It implements io.WriterTo.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	count := func(k int, err error) error {
		n += int64(k)
		return err
	}
	if err := count(bw.Write(magic[:])); err != nil {
		return n, err
	}
	if err := count(bw.Write([]byte{version})); err != nil {
		return n, err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		k := binary.PutUvarint(buf[:], v)
		return count(bw.Write(buf[:k]))
	}
	if err := putUvarint(uint64(t.pages)); err != nil {
		return n, err
	}
	if err := putUvarint(uint64(len(t.refs))); err != nil {
		return n, err
	}
	prev := 0
	for _, r := range t.refs {
		delta := int64(r.Page - prev)
		prev = r.Page
		k := binary.PutVarint(buf[:], delta)
		if err := count(bw.Write(buf[:k])); err != nil {
			return n, err
		}
		flags := quantizeLLC(r.LLCHitProb)
		if r.Write {
			flags |= 0x80
		}
		if err := count(bw.Write([]byte{flags})); err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// Read deserializes a trace written by WriteTo.
func Read(r io.Reader) (*Trace, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return nil, errors.New("trace: bad magic")
	}
	if hdr[4] != version {
		return nil, fmt.Errorf("trace: unsupported version %d (this reader understands only version %d; regenerate the trace with this build's tracegen)", hdr[4], version)
	}
	pages, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: pages: %w", err)
	}
	if pages == 0 {
		return nil, errors.New("trace: zero-page region")
	}
	if pages > math.MaxInt {
		return nil, fmt.Errorf("trace: region of %d pages overflows int", pages)
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("trace: count: %w", err)
	}
	t := New(int(pages))
	t.refs = make([]workload.Ref, 0, min(count, maxPrealloc))
	prev := 0
	for i := uint64(0); i < count; i++ {
		delta, err := binary.ReadVarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: ref %d page: %w", i, err)
		}
		page := prev + int(delta)
		prev = page
		flags, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("trace: ref %d flags: %w", i, err)
		}
		if page < 0 || page >= int(pages) {
			return nil, fmt.Errorf("trace: ref %d page %d outside region %d", i, page, pages)
		}
		t.refs = append(t.refs, workload.Ref{
			Page:       page,
			Write:      flags&0x80 != 0,
			LLCHitProb: dequantizeLLC(flags),
		})
	}
	return t, nil
}

// Replayer replays a trace as a workload.Generator, looping at the end.
type Replayer struct {
	t      *Trace
	cursor int
}

// NewReplayer builds a generator over a non-empty trace.
func NewReplayer(t *Trace) *Replayer {
	if t.Len() == 0 {
		panic("trace: replaying an empty trace")
	}
	return &Replayer{t: t}
}

// Name implements workload.Generator.
func (r *Replayer) Name() string { return "trace-replay" }

// Pages implements workload.Generator.
func (r *Replayer) Pages() int { return r.t.pages }

// Next implements workload.Generator.
func (r *Replayer) Next() workload.Ref {
	ref := r.t.refs[r.cursor]
	r.cursor++
	if r.cursor == len(r.t.refs) {
		r.cursor = 0
	}
	return ref
}
