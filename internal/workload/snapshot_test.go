package workload

import (
	"bytes"
	"testing"

	"vulcan/internal/checkpoint"
	"vulcan/internal/sim"
)

// generatorPairs builds (live, fresh) twins of every generator kind:
// same construction parameters, deliberately different RNG seeds so a
// restore that fails to overwrite the stream is caught.
func generatorPairs() map[string][2]Generator {
	const pages = 300
	mk := func(f func(rng *sim.RNG) Generator) [2]Generator {
		return [2]Generator{f(sim.NewRNG(3)), f(sim.NewRNG(999))}
	}
	return map[string][2]Generator{
		"uniform": mk(func(r *sim.RNG) Generator { return NewUniform(pages, 0.2, 0.1, r) }),
		"zipf":    mk(func(r *sim.RNG) Generator { return NewZipfian(pages, 0.99, 0.2, 0.1, r) }),
		"scan":    mk(func(r *sim.RNG) Generator { return NewScan(pages, 0.3, 0.1, r) }),
		"keyvalue": mk(func(r *sim.RNG) Generator {
			return NewKeyValue(pages, r)
		}),
		"graph":   mk(func(r *sim.RNG) Generator { return NewGraphWalk(pages, r) }),
		"mltrain": mk(func(r *sim.RNG) Generator { return NewMLTrain(pages, r) }),
		"web":     mk(func(r *sim.RNG) Generator { return NewWebServer(pages, r) }),
		"micro":   mk(func(r *sim.RNG) Generator { return NewNomadMicro(pages, 64, 0.2, r) }),
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
