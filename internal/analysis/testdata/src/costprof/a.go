// Package costprof is a vulcanvet fixture shaped like the
// cycle-attribution profiler of internal/obs/prof, which lives under
// the determinism contract: profile artifacts (pprof protobuf and
// breakdown CSV) must be byte-identical across replays,
// so the profiler must never stamp samples from the wall clock, salt
// output with global rand, or vary by host environment.
package costprof

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// account mirrors the profiler's (path, app, tier) cost cell.
type account struct {
	path   string
	cycles float64
}

// badProfileTimestamp stamps the exported profile's time_nanos from the
// host clock; two replays of one run would emit different bytes.
func badProfileTimestamp() int64 {
	return time.Now().UnixNano() // want `wall-clock time\.Now breaks seeded replay`
}

// badSampledCharge drops charges with global rand, so the cost tree
// itself diverges between replays of one seed.
func badSampledCharge(a *account, cycles float64) {
	if rand.Float64() < 0.5 { // want `global math/rand \(Float64\) is not replay-safe`
		return
	}
	a.cycles += cycles
}

// badEnvGatedAccounting flips accounting detail by host environment, so
// the same scenario profiles differently on different machines.
func badEnvGatedAccounting(accounts []account) []account {
	if os.Getenv("VULCAN_PROF_FULL") == "" { // want `os\.Getenv couples the run to the host environment`
		return accounts[:0]
	}
	return accounts
}

// goodFlush is the legal shape: accounts sorted by identity, timestamps
// supplied by the caller from the simulation clock.
func goodFlush(accounts []account, simNow int64) []account {
	sort.Slice(accounts, func(i, j int) bool { return accounts[i].path < accounts[j].path })
	for i := range accounts {
		_ = simNow
		_ = i
	}
	return accounts
}
