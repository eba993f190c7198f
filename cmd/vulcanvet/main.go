// Command vulcanvet is the multichecker for the repository's
// determinism and accounting invariants. It loads the module's packages
// offline (standard-library importer only), runs every analyzer in
// internal/analysis, and prints findings in file:line:col order.
//
// Usage:
//
//	go run ./cmd/vulcanvet ./...
//	go run ./cmd/vulcanvet -list
//	go run ./cmd/vulcanvet -sarif out/vulcanvet.sarif ./...
//
// -sarif writes a SARIF 2.1.0 log (GitHub code scanning ingests it and
// annotates findings inline on PRs), or to stdout for "-". It always
// writes, even on a clean run — an empty SARIF log is CI's green
// artifact.
//
// A finding can be suppressed where it is a deliberate exception with a
// trailing "//vulcanvet:ok <analyzer>" comment on the same or preceding
// line. Exit status: 0 clean, 1 findings, 2 load or usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"vulcan/internal/analysis"
	"vulcan/internal/analysis/driver"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, returning the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vulcanvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list analyzers and exit")
	sarifOut := fs.String("sarif", "", "write a SARIF 2.1.0 report to `file` (\"-\" for stdout)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vulcanvet [-list] [-sarif file] package-pattern...\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}

	root, err := driver.ModuleRoot(".")
	if err != nil {
		fmt.Fprintln(stderr, "vulcanvet:", err)
		return 2
	}
	pkgs, err := driver.Load(root, patterns)
	if err != nil {
		fmt.Fprintln(stderr, "vulcanvet:", err)
		return 2
	}
	findings := driver.Run(pkgs, suite)

	if *sarifOut != "" {
		if err := emit(*sarifOut, stdout, func(w io.Writer) error {
			return driver.WriteSARIF(w, root, suite, findings)
		}); err != nil {
			fmt.Fprintln(stderr, "vulcanvet:", err)
			return 2
		}
	}
	for _, f := range findings {
		fmt.Fprintln(stdout, f)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vulcanvet: %d finding(s) in %d package(s)\n",
			len(findings), len(pkgs))
		return 1
	}
	return 0
}

// emit writes a report to path ("-" = stdout), creating parent
// directories as needed.
func emit(path string, stdout io.Writer, write func(io.Writer) error) error {
	if path == "-" {
		return write(stdout)
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
