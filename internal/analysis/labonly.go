package analysis

import (
	"go/ast"
	"strings"
)

// concurrencyPkgs are the stdlib packages whose mention marks code as
// concurrent. Channels need no extra rule: without go statements there
// is nobody to communicate with, and the go statement itself is
// flagged.
var concurrencyPkgs = map[string]bool{
	"sync":        true,
	"sync/atomic": true,
}

// isLabPackage reports whether pkgPath is the deterministic worker-pool
// harness itself — the one simulation package allowed to spawn
// goroutines and hold locks.
func isLabPackage(pkgPath string) bool {
	return strings.HasSuffix(pkgPath, "/internal/lab")
}

// labExemptPkgs is the scoped exemption table: package path suffixes
// that sit at the process boundary and are allowed concurrency even
// though they live alongside (or drive) the simulation tree. The
// serving daemon's HTTP listener and command mutex are host-facing
// plumbing; the simulation it owns still advances strictly
// single-threaded between epoch boundaries, which the serve package's
// own tests prove by replaying its journal through the serial batch
// path. Every entry here must carry a justification.
var labExemptPkgs = []string{
	// vulcand control plane: accepts admissions over a unix socket while
	// an epoch is running; commands are serialized onto epoch boundaries
	// under one mutex, so the sim tree itself never sees two threads.
	"/internal/serve",
	// vulcand main: signal handling and listener lifecycle.
	"/cmd/vulcand",
}

// labExempt reports whether pkgPath is in the exemption table.
func labExempt(pkgPath string) bool {
	for _, suffix := range labExemptPkgs {
		if strings.HasSuffix(pkgPath, suffix) {
			return true
		}
	}
	return false
}

// LabOnly enforces concurrency containment: simulation code is
// single-threaded by contract (DESIGN.md "Parallel determinism"), and
// parallelism exists only as whole-run fan-out through internal/lab,
// whose ordered-commit discipline keeps output byte-identical to a
// serial run. A stray go statement or mutex anywhere else would let
// scheduling order leak into results, silently breaking seeded replay.
//
// Sync-primitive mentions (not go statements) can be waived with
// "//vulcan:lablocked <reason>" for the rare structure that lab workers
// legitimately share — e.g. a memo cache of immutable tables, where the
// lock guards construction and the contents can never diverge between a
// parallel and a serial run. A reasonless waiver still fires.
var LabOnly = &Analyzer{
	Name: "labonly",
	Doc: "confine go statements and sync primitives to internal/lab; simulation " +
		"code stays single-threaded and independent runs fan out through the lab worker pool",
	Applies: func(pkgPath string) bool {
		return inSimTree(pkgPath) && !isLabPackage(pkgPath) && !labExempt(pkgPath)
	},
	Run: runLabOnly,
}

func runLabOnly(pass *Pass) error {
	waivers := directiveLines(pass, "lablocked")
	pass.Preorder(func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Reportf(n.Pos(),
				"go statement outside internal/lab lets goroutine scheduling into simulation state; fan independent runs out through lab.Map or lab.Collect")
		case *ast.SelectorExpr:
			if pkg := pass.PkgNameOf(n); concurrencyPkgs[pkg] {
				reason, waived := waiverAt(pass, waivers, n.Pos())
				if waived && reason != "" {
					return true
				}
				msg := pkg + "." + n.Sel.Name +
					" outside internal/lab: concurrency primitives are confined to the lab worker pool"
				if waived {
					msg += " (//vulcan:lablocked needs a reason)"
				}
				pass.Reportf(n.Pos(), "%s", msg)
			}
		}
		return true
	})
	return nil
}
