// Command tracegen captures synthetic workload access traces to the
// compact VTRC format and inspects existing trace files.
//
// Usage:
//
//	tracegen -workload memcached -refs 1000000 -pages 208896 -o mc.vtrc
//	tracegen -inspect mc.vtrc
//
// Captured traces replay deterministically through the simulator (see
// internal/trace.Replayer), making experiments portable across machines.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"vulcan/internal/sim"
	"vulcan/internal/trace"
	"vulcan/internal/workload"
)

func main() {
	var (
		name    = flag.String("workload", "memcached", "generator: memcached, pagerank, liblinear, zipf, uniform, scan, micro")
		refs    = flag.Int("refs", 100000, "references to capture")
		pages   = flag.Int("pages", 65536, "region size in pages")
		wss     = flag.Int("wss", 8192, "working-set pages (micro workload)")
		skew    = flag.Float64("skew", 0.99, "Zipf skew (zipf workload)")
		writes  = flag.Float64("writes", 0.1, "write fraction (zipf/uniform/scan/micro)")
		seed    = flag.Uint64("seed", 1, "random seed")
		out     = flag.String("o", "", "output file (default stdout)")
		inspect = flag.String("inspect", "", "inspect an existing trace file instead of generating")
	)
	flag.Parse()

	if *inspect != "" {
		f, err := os.Open(*inspect)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		tr, err := trace.Read(f)
		if err != nil {
			log.Fatal(err)
		}
		st := tr.Stats()
		fmt.Printf("trace: %s\n", *inspect)
		fmt.Printf("  region:       %d pages (%.1f MB)\n", tr.Pages(), float64(tr.Pages())*4096/1e6)
		fmt.Printf("  references:   %d\n", st.Refs)
		fmt.Printf("  unique pages: %d (%.1f%% of region)\n",
			st.UniquePages, 100*float64(st.UniquePages)/float64(tr.Pages()))
		fmt.Printf("  write frac:   %.3f\n", st.WriteFrac)
		fmt.Printf("  mean LLC hit: %.3f\n", st.MeanLLCHit)
		return
	}

	rng := sim.NewRNG(*seed)
	var gen workload.Generator
	switch *name {
	case "memcached":
		gen = workload.NewKeyValue(*pages, rng)
	case "pagerank":
		gen = workload.NewGraphWalk(*pages, rng)
	case "liblinear":
		gen = workload.NewMLTrain(*pages, rng)
	case "zipf":
		gen = workload.NewZipfian(*pages, *skew, *writes, 0.1, rng)
	case "uniform":
		gen = workload.NewUniform(*pages, *writes, 0.1, rng)
	case "scan":
		gen = workload.NewScan(*pages, *writes, 0.02, rng)
	case "micro":
		gen = workload.NewNomadMicro(*pages, *wss, *writes, rng)
	default:
		log.Fatalf("unknown workload %q", *name)
	}

	tr := trace.Capture(gen, *refs)
	var w *os.File = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}
	n, err := tr.WriteTo(w)
	if err != nil {
		log.Fatal(err)
	}
	if *out != "" {
		st := tr.Stats()
		fmt.Printf("wrote %d refs (%d unique pages, %.1f%% writes) to %s (%d bytes, %.2f B/ref)\n",
			st.Refs, st.UniquePages, 100*st.WriteFrac, *out, n, float64(n)/float64(st.Refs))
	}
}
