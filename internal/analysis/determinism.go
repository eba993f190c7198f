package analysis

import (
	"go/ast"
	"strings"
)

// wallClockFuncs are the package-level time functions that read or wait
// on the host's wall clock. Pure value helpers (time.Duration,
// time.Millisecond, ...) stay legal: they carry no hidden state.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// envFuncs are the os functions that couple a run to the host
// environment.
var envFuncs = map[string]bool{
	"Getenv":    true,
	"LookupEnv": true,
	"Environ":   true,
	"ExpandEnv": true,
}

// simPackages are the packages that make up the cycle-accounted
// substrate. Only they fall under the determinism analyzer; cmd/ and
// examples/ may talk to the host freely.
var simPackages = []string{
	"sim", "machine", "mem", "pagetable", "tlb", "migrate", "policy",
	"profile", "core", "system", "trace", "workload", "figures",
	"scenario", "metrics", "obs", "obs/prof", "lab", "fault", "checkpoint",
	"cluster", "serve", "dense",
}

// inSimTree reports whether pkgPath is one of the simulation packages
// covered by the determinism contract.
func inSimTree(pkgPath string) bool {
	for _, p := range simPackages {
		if strings.HasSuffix(pkgPath, "/internal/"+p) {
			return true
		}
	}
	return false
}

// Determinism forbids the three classic replay-breakers inside the
// simulation packages: wall-clock time, the process-global math/rand
// generators, and environment reads. Each simulated component must
// advance through sim.Clock and draw randomness from a sim.RNG stream
// forked off the scenario seed.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock time, global math/rand, and os environment reads " +
		"in simulation packages; use sim.Clock and forked sim.RNG streams",
	Applies: inSimTree,
	Run:     runDeterminism,
}

func runDeterminism(pass *Pass) error {
	pass.Preorder(func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		switch pass.PkgNameOf(sel) {
		case "time":
			if wallClockFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"wall-clock time.%s breaks seeded replay; simulated components advance through sim.Clock",
					sel.Sel.Name)
			}
		case "math/rand", "math/rand/v2":
			pass.Reportf(sel.Pos(),
				"global math/rand (%s) is not replay-safe; draw from a sim.RNG stream forked off the scenario seed",
				sel.Sel.Name)
		case "os":
			if envFuncs[sel.Sel.Name] {
				pass.Reportf(sel.Pos(),
					"os.%s couples the run to the host environment; thread configuration through scenario options instead",
					sel.Sel.Name)
			}
		}
		return true
	})
	return nil
}
