package workload

import (
	"bytes"
	"math"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// genKinds lists a factory for every generator kind, in a fixed order.
var genKinds = []struct {
	name string
	gen  GenFactory
}{
	{"uniform", func(p int, r *sim.RNG) Generator { return NewUniform(p, 0.2, 0.1, r) }},
	{"zipf", func(p int, r *sim.RNG) Generator { return NewZipfian(p, 0.99, 0.2, 0.1, r) }},
	{"scan", func(p int, r *sim.RNG) Generator { return NewScan(p, 0.3, 0.1, r) }},
	{"keyvalue", func(p int, r *sim.RNG) Generator { return NewKeyValue(p, r) }},
	{"graph", func(p int, r *sim.RNG) Generator { return NewGraphWalk(p, r) }},
	{"mltrain", func(p int, r *sim.RNG) Generator { return NewMLTrain(p, r) }},
	{"web", func(p int, r *sim.RNG) Generator { return NewWebServer(p, r) }},
	{"micro", func(p int, r *sim.RNG) Generator { return NewNomadMicro(p, min(p, 64), 0.2, r) }},
}

// generatorPairs builds (live, fresh) twins of every generator kind:
// same construction parameters, deliberately different RNG seeds so a
// restore that fails to overwrite the stream is caught.
func generatorPairs() map[string][2]Generator {
	const pages = 300
	pairs := make(map[string][2]Generator, len(genKinds))
	for _, k := range genKinds {
		pairs[k.name] = [2]Generator{k.gen(pages, sim.NewRNG(3)), k.gen(pages, sim.NewRNG(999))}
	}
	return pairs
}

// threadConfig is a two-thread app over kind's generator: a 300-page
// shared region and 150-page private slices when shared is 0.5, one
// 600-page shared region when it is 1.
func threadConfig(kind int, shared float64) AppConfig {
	return AppConfig{
		Name: genKinds[kind].name, Class: BE, Threads: 2, RSSPages: 600,
		SharedFraction: shared, ComputeNs: 100, NewGen: genKinds[kind].gen,
	}
}

// TestGeneratorSnapshotRoundTrip drives each generator mid-stream,
// snapshots it, restores into a differently-seeded twin, and requires
// the next thousand references to be identical.
func TestGeneratorSnapshotRoundTrip(t *testing.T) {
	for name, pair := range generatorPairs() {
		live, fresh := pair[0], pair[1]
		for i := 0; i < 700; i++ {
			live.Next()
		}

		w := checkpoint.NewWriter()
		SnapshotGenerator(w.Section("gen", 1), live)
		var buf bytes.Buffer
		if _, err := w.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		cr, err := checkpoint.NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		d, err := cr.Section("gen", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := RestoreGenerator(d, fresh); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := d.Close(); err != nil {
			t.Fatalf("%s: unread snapshot bytes: %v", name, err)
		}
		for i := 0; i < 1000; i++ {
			if a, b := live.Next(), fresh.Next(); a != b {
				t.Fatalf("%s: ref %d after restore: %+v != %+v", name, i, a, b)
			}
		}
	}
}

func TestRestoreGeneratorRejectsMismatch(t *testing.T) {
	snap := func(g Generator) []byte {
		e := &checkpoint.Encoder{}
		SnapshotGenerator(e, g)
		return e.Bytes()
	}
	zipf := snap(NewZipfian(100, 0.99, 0.2, 0.1, sim.NewRNG(1)))

	// Wrong generator type.
	if err := RestoreGenerator(checkpoint.NewDecoder(zipf), NewScan(100, 0.2, 0.1, sim.NewRNG(1))); err == nil {
		t.Fatal("zipf snapshot restored into scan generator")
	}
	// Wrong region size.
	if err := RestoreGenerator(checkpoint.NewDecoder(zipf), NewZipfian(200, 0.99, 0.2, 0.1, sim.NewRNG(1))); err == nil {
		t.Fatal("100-page snapshot restored into 200-page generator")
	}
	// Truncations.
	for cut := 0; cut < len(zipf); cut += 5 {
		g := NewZipfian(100, 0.99, 0.2, 0.1, sim.NewRNG(1))
		if err := RestoreGenerator(checkpoint.NewDecoder(zipf[:cut]), g); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzThreadRestore feeds arbitrary bytes to Thread.Restore, the
// decoder of a thread's part of a checkpoint's app section, choosing
// the generator kind and region layout from the first input. It must
// never panic, an accepted blob must re-encode byte for byte, and the
// restored thread must keep drawing in range.
func FuzzThreadRestore(f *testing.F) {
	for kind := range genKinds {
		for layout, shared := range []float64{0.5, 1} {
			th := BuildThreads(threadConfig(kind, shared), sim.NewRNG(uint64(kind)+1))[1]
			for i := 0; i < 977; i++ {
				th.Next()
			}
			e := &checkpoint.Encoder{}
			th.Snapshot(e)
			blob := e.Bytes()
			sel := uint8(2*kind + layout)
			f.Add(sel, blob)
			for cut := 0; cut < len(blob); cut += 13 {
				f.Add(sel, blob[:cut])
			}
		}
	}
	// A cursor near MaxInt64 must be rejected, not wrapped into range
	// by the decoder's bounds arithmetic.
	for kind := range genKinds {
		th := BuildThreads(threadConfig(kind, 1), sim.NewRNG(3))[1]
		switch g := th.shared.(type) {
		case *GraphWalk:
			g.edgeCursor = math.MaxInt64 - 5
		case *MLTrain:
			g.dataCursor = math.MaxInt64 - 5
		default:
			continue
		}
		e := &checkpoint.Encoder{}
		th.Snapshot(e)
		f.Add(uint8(2*kind+1), e.Bytes())
	}
	f.Fuzz(func(t *testing.T, sel uint8, blob []byte) {
		kind, layout := int(sel/2)%len(genKinds), sel%2
		cfg := threadConfig(kind, []float64{0.5, 1}[layout])
		th := BuildThreads(cfg, sim.NewRNG(7))[1]
		d := checkpoint.NewDecoder(blob)
		if th.Restore(d) != nil || d.Close() != nil {
			return
		}
		e := &checkpoint.Encoder{}
		th.Snapshot(e)
		if !bytes.Equal(e.Bytes(), blob) {
			t.Fatalf("accepted blob re-encodes differently:\n in  %x\n out %x", blob, e.Bytes())
		}
		for i := 0; i < 100; i++ {
			if r := th.Next(); r.Page < 0 || r.Page >= cfg.RSSPages {
				t.Fatalf("restored %s thread draws page %d outside [0,%d)", cfg.Name, r.Page, cfg.RSSPages)
			}
		}
	})
}
