package cluster

import (
	"bytes"
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/mem"
	"vulcan/internal/obs"
	"vulcan/internal/system"
)

// hostSinks are the telemetry set-ups a fleet host can run under: the
// default (no sink), a record-everything recorder, and a recorder that
// keeps only epoch events. All three are opted into via HostOverride.
var hostSinks = []struct {
	name string
	sink func() obs.Sink
}{
	{"none", func() obs.Sink { return nil }},
	{"recorder", func() obs.Sink { return obs.NewRecorder() }},
	{"filtered", func() obs.Sink {
		r := obs.NewRecorder()
		r.SetFilter(obs.TypeSet(0).With(obs.EvEpoch))
		return r
	}},
}

// telemetryFleetConfig is a vulcan fleet with departures and, thanks to
// a starved host 0, pressure-driven rebalance moves. plan (nil = fault
// free) and sink (nil = the default) reach every host via HostOverride.
func telemetryFleetConfig(plan *fault.Plan, sink func() obs.Sink) Config {
	cfg := fleetConfig(3, 2, "vulcan")
	cfg.HostOverride = func(host int, scfg *system.Config) {
		if host == 0 {
			scfg.Machine.Tiers[mem.TierFast].CapacityPages = 64
		}
		scfg.Faults = plan
		if sink != nil {
			scfg.Obs = sink()
		}
	}
	return cfg
}

// TestSchedulerIgnoresTelemetry pins the rule that no scheduler reads
// state through the telemetry layer: the vulcan fleet's output is the
// same whether its hosts carry no sink, a full recorder or a filtered
// one, and a checkpoint cut from recorder-bearing hosts resumes on
// default hosts to the same finished run.
func TestSchedulerIgnoresTelemetry(t *testing.T) {
	const total, split = 12, 5
	moderate, err := fault.ParseProfile("moderate")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		plan *fault.Plan
	}{{"fault-free", nil}, {"faulted", moderate}} {
		var want []byte
		for _, s := range hostSinks {
			f, err := New(telemetryFleetConfig(tc.plan, s.sink))
			if err != nil {
				t.Fatal(err)
			}
			mustRun(t, f, total)
			r := f.Report()
			if r.Departed == 0 || r.Moves == 0 {
				t.Fatalf("%s/%s: departed=%d moves=%d, want both > 0", tc.name, s.name, r.Departed, r.Moves)
			}
			if tc.plan != nil && !readsConfidence(f) {
				t.Fatalf("%s/%s: no tenant has a sample-fault stream", tc.name, s.name)
			}
			got := dump(t, f)
			if want == nil {
				want = got
			} else if !bytes.Equal(want, got) {
				t.Fatalf("%s: fleet output with host sink %q differs from %q (%d vs %d bytes)",
					tc.name, s.name, hostSinks[0].name, len(got), len(want))
			}
		}

		first, err := New(telemetryFleetConfig(tc.plan, hostSinks[1].sink))
		if err != nil {
			t.Fatal(err)
		}
		mustRun(t, first, split)
		var blob bytes.Buffer
		if err := first.Checkpoint(&blob); err != nil {
			t.Fatal(err)
		}
		resumed, err := Resume(bytes.NewReader(blob.Bytes()), telemetryFleetConfig(tc.plan, nil))
		if err != nil {
			t.Fatalf("%s: resume on default hosts: %v", tc.name, err)
		}
		mustRun(t, resumed, total-split)
		if got := dump(t, resumed); !bytes.Equal(want, got) {
			t.Fatalf("%s: recorder checkpoint resumed on default hosts diverged (%d vs %d bytes)",
				tc.name, len(got), len(want))
		}
	}
}

// readsConfidence reports whether some running tenant exposes its
// sample-fault stream's confidence — the input hostPressure reads.
func readsConfidence(f *Fleet) bool {
	for h := 0; h < f.NumHosts(); h++ {
		for _, a := range f.Host(h).Sys.StartedApps() {
			if _, ok := a.ProfileConfidence(); ok {
				return true
			}
		}
	}
	return false
}
