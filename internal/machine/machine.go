package machine

import (
	"fmt"

	"vulcan/internal/mem"
	"vulcan/internal/sim"
)

// Config describes a simulated host.
type Config struct {
	Cores int
	Tiers [mem.NumTiers]mem.TierConfig
	Cost  CostModel
	Seed  uint64
}

// DefaultConfig mirrors the paper's single-socket testbed: 32 cores, the
// scaled fast/slow tiers of mem.DefaultConfig, and the calibrated cost
// model.
func DefaultConfig() Config {
	return Config{
		Cores: 32,
		Tiers: mem.DefaultConfig(),
		Cost:  DefaultCostModel(),
		Seed:  1,
	}
}

// Machine binds together the physical substrate of one simulation run:
// the virtual clock, memory tiers, core count, cost model, and machine
// RNG. It is the single object policies and workloads share.
type Machine struct {
	Clock *sim.Clock
	Tiers *mem.Tiers
	Cost  CostModel
	RNG   *sim.RNG

	cores int
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		panic(fmt.Sprintf("machine: %d cores", cfg.Cores))
	}
	return &Machine{
		Clock: &sim.Clock{},
		Tiers: mem.NewTiers(cfg.Tiers),
		Cost:  cfg.Cost,
		RNG:   sim.NewRNG(cfg.Seed),
		cores: cfg.Cores,
	}
}

// Cores returns the machine's core count.
func (m *Machine) Cores() int { return m.cores }

// Now returns the current simulated time.
func (m *Machine) Now() sim.Time { return m.Clock.Now() }
