// Package sim provides the deterministic simulation kernel shared by every
// substrate in the repository: a nanosecond-resolution virtual clock and
// reproducible pseudo-random number generators.
//
// All simulated components (memory tiers, TLBs, migration engines, workload
// generators) advance exclusively through this package, which keeps every
// experiment bit-reproducible from a seed.
package sim

import "fmt"

// Time is a point in simulated time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants but for simulated
// time. Using distinct types prevents accidentally mixing wall-clock and
// simulated values.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String renders the time with an adaptive unit, e.g. "12.5ms".
func (t Time) String() string { return Duration(t).String() }

// String renders the duration with an adaptive unit.
func (d Duration) String() string {
	switch {
	case d < 0:
		return "-" + (-d).String()
	case d < Microsecond:
		return fmt.Sprintf("%dns", int64(d))
	case d < Millisecond:
		return fmt.Sprintf("%.2fµs", float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%.2fms", float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	}
}

// Seconds returns the duration as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Clock is the simulation's source of truth for virtual time. The zero
// value is a clock at t=0, ready to use.
type Clock struct {
	now Time
}

// Now returns the current simulated time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d. It panics on negative d: simulated
// time is monotone, and a negative advance always indicates a logic error
// in the caller rather than a recoverable condition.
func (c *Clock) Advance(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative clock advance %d", d))
	}
	c.now += Time(d)
}

// CyclesPerNs is the simulated core frequency in cycles per nanosecond.
// The paper's testbed uses Intel Xeon Platinum 8378A CPUs at 3.0 GHz.
const CyclesPerNs = 3.0

// CyclesToDuration converts a CPU-cycle count into simulated time at the
// modeled 3.0 GHz clock.
func CyclesToDuration(cycles float64) Duration {
	return Duration(cycles / CyclesPerNs)
}
