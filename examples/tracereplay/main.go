// Tracereplay captures an access trace from a synthetic workload, saves
// it to disk in the compact VTRC format, reloads it, and drives the
// simulator from the replayed trace — the workflow for feeding captured
// or externally generated access patterns into tiering experiments with
// bit-exact reproducibility.
package main

import (
	"bytes"
	"fmt"
	"log"

	"vulcan"
	"vulcan/internal/sim"
	"vulcan/internal/workload"
)

func main() {
	// 1. Capture: record 200K references of a key-value workload.
	const pages = 8000
	source := workload.NewKeyValue(pages, sim.NewRNG(42))
	tr := vulcan.CaptureTrace(source, 200_000)
	st := tr.Stats()
	fmt.Printf("captured %d refs over %d pages (%d unique, %.0f%% writes)\n",
		st.Refs, tr.Pages(), st.UniquePages, 100*st.WriteFrac)

	// 2. Serialize and reload (stand-in for writing a .vtrc file).
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serialized to %d bytes (%.2f B/ref)\n", buf.Len(), float64(buf.Len())/float64(st.Refs))
	loaded, err := vulcan.ReadTrace(&buf)
	if err != nil {
		log.Fatal(err)
	}

	// 3. Replay: run the simulator with the trace as the access stream.
	machine := vulcan.DefaultMachine()
	machine.Tiers[vulcan.TierFast].CapacityPages = 2048
	machine.Tiers[vulcan.TierSlow].CapacityPages = 32768

	sys := vulcan.NewSystem(vulcan.Config{
		Machine: machine,
		Apps: []vulcan.AppConfig{{
			Name: "replayed", Class: vulcan.LC, Threads: 2, RSSPages: pages,
			SharedFraction: 1.0, ComputeNs: 100 * vulcan.Nanosecond,
			NewGen: func(p int, rng *sim.RNG) vulcan.Generator {
				return vulcan.NewTraceReplayer(loaded)
			},
		}},
		Policy: vulcan.NewVulcan(vulcan.VulcanOptions{}),
	})
	sys.Run(30 * vulcan.Second)

	app := sys.App("replayed")
	fmt.Printf("replayed under Vulcan: perf=%.3f fthr=%.2f fast=%d/%d pages\n",
		app.NormalizedPerf().Mean(), app.FTHR(), app.FastPages(), app.RSSMapped())
}
