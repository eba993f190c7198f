package system_test

import (
	"bytes"
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/figures"
	"vulcan/internal/system"
)

// equivScale keeps the co-location small enough to run every policy
// three times over.
const equivScale = 16

// equivConfig is the figures co-location at equivScale under a fresh
// instance of the named policy.
func equivConfig(policy string, faults *fault.Plan) system.Config {
	return system.Config{
		Machine:          figures.ColocationMachine(equivScale),
		Apps:             figures.Table2Apps(equivScale, false),
		Policy:           figures.NewPolicy(policy),
		Seed:             1,
		SamplesPerThread: figures.SamplesForScale(equivScale),
		Faults:           faults,
	}
}

func checkpointBytes(t *testing.T, sys *system.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func recorderCSV(t *testing.T, sys *system.System) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := sys.Recorder().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResumeMatchesReplay holds Resume, which never premaps, to the
// replaying reference for every policy and three blobs: a static
// WarmStart blob the policy branches from, a mid-run blob of the policy
// itself, and a mid-run blob under the moderate fault profile. Right
// after the resume the system passes Audit and checkpoints to the
// reference's bytes — which pins what a premap leaves behind, Vulcan's
// first-touch placement count included — and ten more epochs record
// the same series.
func TestResumeMatchesReplay(t *testing.T) {
	warm := figures.WarmStart(figures.ColocationConfig{Scale: equivScale, Seed: 1}, 4)
	moderate := func() *fault.Plan {
		p, err := fault.ParseProfile("moderate")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	midRun := func(cfg system.Config) []byte {
		sys := system.New(cfg)
		for i := 0; i < 4; i++ {
			sys.RunEpoch()
		}
		return checkpointBytes(t, sys)
	}
	for _, policy := range figures.PolicyNames {
		cases := []struct {
			name string
			blob []byte
			cfg  func() system.Config
		}{
			{"warm", warm, func() system.Config { return equivConfig(policy, nil) }},
			{"mid", nil, func() system.Config { return equivConfig(policy, nil) }},
			{"faulted", nil, func() system.Config { return equivConfig(policy, moderate()) }},
		}
		for _, c := range cases {
			t.Run(policy+"/"+c.name, func(t *testing.T) {
				blob := c.blob
				if blob == nil {
					blob = midRun(c.cfg())
				}
				got, err := system.Resume(bytes.NewReader(blob), c.cfg())
				if err != nil {
					t.Fatal(err)
				}
				want, err := system.ResumeByReplay(bytes.NewReader(blob), c.cfg())
				if err != nil {
					t.Fatal(err)
				}
				if audit := got.Audit(); !audit.Ok() {
					t.Fatalf("resumed system fails its audit: %v", audit.Errors)
				}
				if !bytes.Equal(checkpointBytes(t, got), checkpointBytes(t, want)) {
					t.Fatal("resume checkpoints differently from the replaying reference")
				}
				for i := 0; i < 10; i++ {
					got.RunEpoch()
					want.RunEpoch()
				}
				if !bytes.Equal(recorderCSV(t, got), recorderCSV(t, want)) {
					t.Fatal("resumed run records a different series from the replaying reference")
				}
			})
		}
	}
}
