//go:build race

package system

// raceEnabled reports a race-detector build, whose instrumentation
// changes what the runtime allocates.
const raceEnabled = true
