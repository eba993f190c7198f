package cluster

import (
	"bytes"
	"strings"
	"testing"

	"vulcan/internal/machine"
	"vulcan/internal/mem"
	"vulcan/internal/sim"
	"vulcan/internal/system"
	"vulcan/internal/workload"
)

func tinyHost() HostTemplate {
	mcfg := machine.DefaultConfig()
	mcfg.Cores = 8
	mcfg.Tiers[mem.TierFast].CapacityPages = 256
	mcfg.Tiers[mem.TierSlow].CapacityPages = 4096
	return HostTemplate{Machine: mcfg, EpochLength: 10 * sim.Millisecond}
}

func tinyJob(name string, class workload.Class, pages, arrive, depart int) JobSpec {
	return JobSpec{
		App: workload.AppConfig{
			Name:           name,
			Class:          class,
			Threads:        2,
			RSSPages:       pages,
			SharedFraction: 0.5,
			ComputeNs:      100 * sim.Nanosecond,
			NewGen: func(p int, rng *sim.RNG) workload.Generator {
				return workload.NewZipfian(p, 0.99, 0.1, 0.1, rng)
			},
		},
		Arrive: arrive,
		Depart: depart,
	}
}

// fleetConfig builds a fleet whose schedule exercises arrivals,
// deferred placement, departures and (on cadence) rebalancing.
func fleetConfig(hosts, workers int, scheduler string) Config {
	jobs := []JobSpec{
		tinyJob("alpha", workload.LC, 200, 0, 0),
		tinyJob("beta", workload.BE, 250, 0, 6),
		tinyJob("gamma", workload.LC, 150, 1, 0),
		tinyJob("delta", workload.BE, 200, 2, 0),
		tinyJob("eps", workload.LC, 180, 3, 0),
		tinyJob("zeta", workload.BE, 220, 3, 7),
	}
	return Config{
		Hosts:          hosts,
		Host:           tinyHost(),
		Scheduler:      scheduler,
		Jobs:           jobs,
		RebalanceEvery: 3,
		MoveBudget:     2,
		Workers:        workers,
		Seed:           7,
	}
}

// dump renders everything the fleet byte-identity contract covers: the
// fleet report plus every host's report and time series. Host telemetry
// is opt-in and observer-only, so it is not part of the contract.
func dump(t *testing.T, f *Fleet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Report().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for h := 0; h < f.NumHosts(); h++ {
		sys := f.Host(h).Sys
		if err := sys.Report().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := sys.Recorder().WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func mustRun(t *testing.T, f *Fleet, n int) {
	t.Helper()
	if err := f.Run(n); err != nil {
		t.Fatal(err)
	}
}

func TestFleetConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Hosts = 0 },
		func(c *Config) { c.Jobs = nil },
		func(c *Config) { c.Jobs[0].App.Name = "" },
		func(c *Config) { c.Jobs[0].App.Name = "x~1" },
		func(c *Config) { c.Jobs[0].App.Name = strings.Repeat("j", workload.MaxNameLen-genSuffixLen+1) },
		func(c *Config) { c.Jobs[1].App.Name = c.Jobs[0].App.Name },
		func(c *Config) { c.Jobs[0].Arrive = -1 },
		func(c *Config) { c.Jobs[2].Depart = 1 }, // arrives at 1, departs at 1
		func(c *Config) { c.Scheduler = "round-robin" },
	}
	for i, mutate := range bad {
		cfg := fleetConfig(2, 1, "binpack")
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := New(fleetConfig(2, 1, "binpack")); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestFleetLifecycle(t *testing.T) {
	for _, sched := range Schedulers() {
		f, err := New(fleetConfig(3, 1, sched))
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, f, 10)
		r := f.Report()
		if r.Departed != 2 {
			t.Errorf("%s: departed = %d, want 2 (beta, zeta)", sched, r.Departed)
		}
		if r.Placed != 4 {
			t.Errorf("%s: placed = %d, want 4", sched, r.Placed)
		}
		if r.FleetCFI <= 0 || r.FleetCFI > 1 {
			t.Errorf("%s: fleet CFI = %v", sched, r.FleetCFI)
		}
		if r.HostCombinedCFI <= 0 || r.HostCombinedCFI > 1 {
			t.Errorf("%s: host-combined CFI = %v", sched, r.HostCombinedCFI)
		}
		for h := 0; h < f.NumHosts(); h++ {
			if audit := f.Host(h).Sys.Audit(); !audit.Ok() {
				t.Errorf("%s: host %d audit: %v", sched, h, audit.Errors)
			}
		}
		var text bytes.Buffer
		if err := r.WriteText(&text); err != nil {
			t.Fatal(err)
		}
		if text.Len() == 0 {
			t.Errorf("%s: empty text report", sched)
		}
	}
}

// The acceptance bar: a 64-host fleet is byte-identical at any lab
// worker count.
func TestFleetWorkersByteIdentical(t *testing.T) {
	const hosts, epochs = 64, 6
	run := func(workers int) []byte {
		f, err := New(fleetConfig(hosts, workers, "fairness"))
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, f, epochs)
		return dump(t, f)
	}
	want := run(1)
	for _, workers := range []int{2, 7} {
		if got := run(workers); !bytes.Equal(want, got) {
			t.Fatalf("fleet output differs at %d workers (%d vs %d bytes)", workers, len(want), len(got))
		}
	}
}

func TestFleetResumeByteIdentical(t *testing.T) {
	const total = 10
	for _, sched := range Schedulers() {
		for _, split := range []int{2, 5, 8} {
			golden, err := New(fleetConfig(3, 2, sched))
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, golden, total)
			want := dump(t, golden)

			first, err := New(fleetConfig(3, 2, sched))
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, first, split)
			var blob bytes.Buffer
			if err := first.Checkpoint(&blob); err != nil {
				t.Fatalf("%s split %d: checkpoint: %v", sched, split, err)
			}
			resumed, err := Resume(bytes.NewReader(blob.Bytes()), fleetConfig(3, 7, sched))
			if err != nil {
				t.Fatalf("%s split %d: resume: %v", sched, split, err)
			}
			mustRun(t, resumed, total-split)
			if got := dump(t, resumed); !bytes.Equal(want, got) {
				t.Fatalf("%s split %d: resumed fleet diverged (%d vs %d bytes)", sched, split, len(want), len(got))
			}
		}
	}
}

// A 64-host fleet resumed mid-run finishes byte-identical to the
// uninterrupted 64-host run — the second acceptance leg.
func TestFleet64HostResumeByteIdentical(t *testing.T) {
	const hosts, split, total = 64, 3, 6
	golden, err := New(fleetConfig(hosts, 4, "vulcan"))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, golden, total)
	want := dump(t, golden)

	first, err := New(fleetConfig(hosts, 4, "vulcan"))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, first, split)
	var blob bytes.Buffer
	if err := first.Checkpoint(&blob); err != nil {
		t.Fatal(err)
	}
	resumed, err := Resume(bytes.NewReader(blob.Bytes()), fleetConfig(hosts, 2, "vulcan"))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, resumed, total-split)
	if got := dump(t, resumed); !bytes.Equal(want, got) {
		t.Fatalf("64-host resumed fleet diverged (%d vs %d bytes)", len(want), len(got))
	}
}

func TestFleetRebalanceAccounting(t *testing.T) {
	// Skew the fleet so host 0 is tiny: pressure-driven schedulers get a
	// reason to move tenants, and the accounting must line up.
	cfg := fleetConfig(3, 1, "vulcan")
	cfg.HostOverride = func(host int, scfg *system.Config) {
		if host == 0 {
			scfg.Machine.Tiers[mem.TierFast].CapacityPages = 64
		}
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, f, 12)
	r := f.Report()
	if r.Moves > 0 {
		if r.MigratedPages == 0 {
			t.Error("moves happened but no pages accounted")
		}
		if r.CrossHostCycles != float64(r.MigratedPages)*crossHostCopyCyclesPerPage {
			t.Error("cross-host cycle accounting inconsistent")
		}
	}
	for h := 0; h < f.NumHosts(); h++ {
		if audit := f.Host(h).Sys.Audit(); !audit.Ok() {
			t.Errorf("host %d audit after rebalance: %v", h, audit.Errors)
		}
	}
}
