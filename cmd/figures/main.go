// Command figures regenerates the tables and figures of the paper's
// evaluation from the simulated substrate.
//
// Usage:
//
//	figures -all                    # every figure and table (slow)
//	figures -fig 2                  # one figure (1,2,3,4,7,8,9,10)
//	figures -table 1                # one table (1,2)
//	figures -ablations              # Vulcan mechanism ablations
//	figures -fig 10 -trials 10      # paper-grade trial count
//	figures -fig 9 -csv             # machine-readable output
//	figures -figr                   # fault-injection resilience (Figure R)
//	figures -figf                   # fleet placement schedulers (Figure F)
//
// -scale divides capacities and footprints beyond the built-in 1/64
// scale; larger values run faster at lower fidelity.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"vulcan/internal/figures"
	"vulcan/internal/lab"
	"vulcan/internal/obs/prof"
	"vulcan/internal/sim"
)

// errUsage marks a command line that selects nothing or fails to parse;
// main exits 2 on it, after the usage text.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil || errors.Is(err, flag.ErrHelp):
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		log.Fatal(err)
	}
}

// run parses args, regenerates the selected figures and tables and
// writes them to stdout. Usage text and profile notes go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig       = fs.Int("fig", 0, "figure number to regenerate (1,2,3,4,6,7,8,9,10)")
		table     = fs.Int("table", 0, "table number to regenerate (1,2)")
		all       = fs.Bool("all", false, "regenerate everything")
		ablations = fs.Bool("ablations", false, "run Vulcan mechanism ablations")
		figR      = fs.Bool("figr", false, "run the fault-injection resilience comparison (Figure R)")
		figF      = fs.Bool("figf", false, "run the fleet placement comparison (Figure F: scheduler × fleet size)")
		csv       = fs.Bool("csv", false, "emit CSV instead of text tables")
		trials    = fs.Int("trials", 3, "trials for Figure 10")
		seconds   = fs.Int("seconds", 120, "simulated seconds for co-location figures")
		scale     = fs.Int("scale", 4, "extra capacity scale divisor (1 = full 1/64 scale)")
		seed      = fs.Uint64("seed", 1, "base random seed")
		parallel  = fs.Int("parallel", 0, "worker goroutines for independent runs (0 = GOMAXPROCS); output is byte-identical at any value")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the figure generation to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile of the figure generation to this file (taken at exit)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	lab.SetDefaultWorkers(*parallel)

	if *cpuProf != "" {
		stop, err := prof.StartCPUProfile(*cpuProf)
		if err != nil {
			return err
		}
		defer func() {
			if err := stop(); err != nil {
				log.Print(err)
				return
			}
			fmt.Fprintf(stderr, "cpu profile written to %s\n", *cpuProf)
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := prof.WriteHeapProfile(*memProf); err != nil {
				log.Print(err)
				return
			}
			fmt.Fprintf(stderr, "heap profile written to %s\n", *memProf)
		}()
	}

	duration := sim.Duration(*seconds) * sim.Second
	did := false
	emit := func(text, csvText string) {
		if *csv {
			fmt.Fprint(stdout, csvText)
		} else {
			fmt.Fprintln(stdout, text)
		}
		did = true
	}

	want := func(n int) bool { return *all || *fig == n }

	if want(1) {
		r := figures.Fig1(duration, *scale, *seed)
		emit(figures.RenderFig1(r), figures.CSVFig1(r))
	}
	if want(2) {
		r := figures.Fig2()
		emit(figures.RenderFig2(r), figures.CSVFig2(r))
	}
	if want(3) {
		r := figures.Fig3()
		emit(figures.RenderFig3(r), figures.CSVFig3(r))
	}
	if want(4) {
		r := figures.Fig4(*seed)
		emit(figures.RenderFig4(r), figures.CSVFig4(r))
	}
	if want(6) {
		r := figures.Fig6()
		emit(figures.RenderFig6(r), figures.CSVFig6(r))
	}
	if want(7) {
		r := figures.Fig7()
		emit(figures.RenderFig7(r), figures.CSVFig7(r))
	}
	if want(8) {
		r := figures.Fig8(nil, *seed)
		emit(figures.RenderFig8(r), figures.CSVFig8(r))
	}
	if want(9) {
		r := figures.Fig9(duration, *scale, *seed)
		emit(figures.RenderFig9(r), figures.CSVFig9(r))
	}
	if want(10) {
		r := figures.Fig10(*trials, duration, *scale)
		emit(figures.RenderFig10(r), figures.CSVFig10(r))
	}
	if *all || *figR {
		r := figures.FigR(duration, *scale, *seed, nil)
		emit(figures.RenderFigR(r), figures.CSVFigR(r))
	}
	if *all || *figF {
		r := figures.FigF(0, nil, *seed)
		emit(figures.RenderFigF(r), figures.CSVFigF(r))
	}
	if *all || *table == 1 {
		emit(figures.RenderTable1(figures.Table1()), "")
	}
	if *all || *table == 2 {
		emit(figures.RenderTable2(figures.Table2()), "")
	}
	if *all || *ablations {
		r := figures.Ablations(duration, *scale, *seed)
		emit(figures.RenderAblations(r), "")
	}

	if !did {
		fs.Usage()
		return errUsage
	}
	return nil
}
