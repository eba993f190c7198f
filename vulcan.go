// Package vulcan is the public API of the Vulcan tiered-memory management
// framework — a Go reproduction of "Leave No One Behind: Towards Fair and
// Efficient Tiered Memory Management for Multi-Applications" (ICPP 2025).
//
// The package wires together a simulated tiered-memory machine (fast
// local DRAM + slow CXL-like memory, per-thread TLBs, 4-level page
// tables with Vulcan's per-thread replication, and a cycle-accounted
// page-migration engine), synthetic multi-tenant workloads, and pluggable
// tiering policies: Vulcan itself plus the TPP, Memtis and Nomad
// baselines the paper compares against.
//
// Quick start:
//
//	sys := vulcan.NewSystem(vulcan.Config{
//	    Apps:   []vulcan.AppConfig{vulcan.Memcached(), vulcan.Liblinear()},
//	    Policy: vulcan.NewVulcan(vulcan.VulcanOptions{}),
//	})
//	sys.Run(60 * vulcan.Second)
//	for _, app := range sys.Apps() {
//	    fmt.Println(app.Name(), app.FTHR(), app.NormalizedPerf().Mean())
//	}
//
// See examples/ for runnable scenarios and internal/figures for the code
// that regenerates every table and figure of the paper's evaluation.
package vulcan

import (
	"io"

	"vulcan/internal/core"
	"vulcan/internal/fault"
	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/pagetable"
	"vulcan/internal/policy"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/trace"
	"vulcan/internal/workload"
)

// Core runtime types.
type (
	// Config assembles one co-location experiment.
	Config = system.Config
	// System is the live co-location runtime.
	System = system.System
	// App is one admitted application.
	App = system.App
	// Tiering is the pluggable policy interface.
	Tiering = system.Tiering
	// Mechanisms selects engine-level migration optimizations.
	Mechanisms = system.Mechanisms

	// AppConfig describes one co-located application.
	AppConfig = workload.AppConfig
	// Generator produces synthetic page references.
	Generator = workload.Generator
	// Class labels a workload LC or BE.
	Class = workload.Class

	// MachineConfig describes the simulated host.
	MachineConfig = machine.Config
	// CostModel holds the machine's cycle-cost constants.
	CostModel = machine.CostModel

	// VulcanPolicy is the paper's tiering framework.
	VulcanPolicy = core.Vulcan
	// VulcanOptions configure it (zero value = full system).
	VulcanOptions = core.Options

	// Time and Duration are simulated-clock units (nanoseconds).
	Time = sim.Time
	// Duration is a span of simulated time.
	Duration = sim.Duration

	// TierID identifies a memory tier.
	TierID = mem.TierID
	// VPage is a virtual page number.
	VPage = pagetable.VPage

	// Running accumulates summary statistics.
	Running = metrics.Running
)

// Workload classes.
const (
	// LC marks latency-critical workloads (served first by CBFRP).
	LC = workload.LC
	// BE marks best-effort workloads.
	BE = workload.BE
)

// Memory tiers.
const (
	// TierFast is the local-DRAM tier.
	TierFast = mem.TierFast
	// TierSlow is the CXL-like far-memory tier.
	TierSlow = mem.TierSlow
)

// Simulated-time units.
const (
	// Nanosecond is the base simulated-time unit.
	Nanosecond = sim.Nanosecond
	// Microsecond is 1e3 nanoseconds.
	Microsecond = sim.Microsecond
	// Millisecond is 1e6 nanoseconds.
	Millisecond = sim.Millisecond
	// Second is 1e9 nanoseconds.
	Second = sim.Second
)

// NewSystem validates cfg and builds a co-location runtime.
func NewSystem(cfg Config) *System { return system.New(cfg) }

// Resume rebuilds a System from a checkpoint blob written by
// (*System).Checkpoint. cfg must describe the same experiment (seed,
// machine, apps); the policy and fault plan may differ — that is the
// branch-from-snapshot path (see internal/system and DESIGN.md §11).
func Resume(r io.Reader, cfg Config) (*System, error) { return system.Resume(r, cfg) }

// NewVulcan builds the Vulcan policy (§3 of the paper): QoS-aware fair
// partitioning, biased migration queues, per-thread page tables,
// optimized preparation and shadowing.
func NewVulcan(opts VulcanOptions) *VulcanPolicy { return core.New(opts) }

// NewTPP builds the Transparent Page Placement baseline.
func NewTPP() Tiering { return policy.NewTPP() }

// NewMemtis builds the Memtis baseline (PEBS-based global hotness
// ranking — the system that exhibits the cold-page dilemma).
func NewMemtis() Tiering { return policy.NewMemtis() }

// NewNomad builds the Nomad baseline (transactional async migration with
// page shadowing).
func NewNomad() Tiering { return policy.NewNomad() }

// NewStatic builds the no-migration first-touch control.
func NewStatic() Tiering { return system.NullPolicy{} }

// DefaultMachine returns the paper's testbed at 1/64 scale: 32 cores,
// 512MB fast tier (70ns), 4GB slow tier (162ns), calibrated cost model.
func DefaultMachine() MachineConfig { return machine.DefaultConfig() }

// Memcached returns the paper's LC key-value workload (Table 2, 51 GB at
// 1/64 scale).
func Memcached() AppConfig { return workload.MemcachedConfig() }

// PageRank returns the paper's BE graph workload (42 GB at 1/64 scale).
func PageRank() AppConfig { return workload.PageRankConfig() }

// Liblinear returns the paper's BE ML workload (69 GB at 1/64 scale).
func Liblinear() AppConfig { return workload.LiblinearConfig() }

// Trace is a recorded page-reference stream (compact VTRC format).
type Trace = trace.Trace

// TraceReplayer replays a Trace as a workload Generator, looping.
type TraceReplayer = trace.Replayer

// CaptureTrace records n references from a generator.
func CaptureTrace(g Generator, n int) *Trace { return trace.Capture(g, n) }

// ReadTrace deserializes a trace written with Trace.WriteTo.
func ReadTrace(r io.Reader) (*Trace, error) { return trace.Read(r) }

// NewTraceReplayer builds a looping generator over a captured trace.
func NewTraceReplayer(t *Trace) *TraceReplayer { return trace.NewReplayer(t) }

// Fault injection (internal/fault): deterministic chaos for the
// substrate. Set Config.Faults to an armed FaultPlan to degrade
// bandwidth, spike latency, fail migrations, drop profiler samples and
// burst memory pressure on a seed-derived schedule; a nil or unarmed
// plan leaves the run byte-identical to a fault-free build.
type (
	// FaultPlan declares what to inject and how often: rules that arm
	// fault kinds, plus a seed that places them.
	FaultPlan = fault.Plan
	// FaultRule is one (kind, scope, rate, severity) injection rule.
	FaultRule = fault.Rule
	// FaultKind enumerates the injectable fault classes.
	FaultKind = fault.Kind
)
