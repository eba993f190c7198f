package figures

import (
	"bytes"
	"testing"

	"vulcan/internal/sim"
	"vulcan/internal/system"
)

// TestFig10AuditsEveryEpoch runs the first trial of Fig10 at the golden
// test's arguments (60 s, scale 8) under every policy — warm-up, branch
// and all — and audits the system after each epoch: frame ownership and
// the page-table leaf masks hold at every boundary, not only in the
// final report. The audited warm-up must match WarmStart byte for byte.
func TestFig10AuditsEveryEpoch(t *testing.T) {
	cfg := ColocationConfig{Duration: 60 * sim.Second, Seed: 1, Scale: 8}.normalized()
	audit := func(sys *system.System, what string) {
		t.Helper()
		if rep := sys.Audit(); !rep.Ok() {
			t.Fatalf("%s epoch %d: %v: %v", what, sys.Epoch(), rep, rep.Errors)
		}
	}
	warmSys := system.New(cfg.systemConfig(system.NullPolicy{}))
	for i := 0; i < warmEpochs(cfg.Duration); i++ {
		warmSys.RunEpoch()
		audit(warmSys, "warm-up")
	}
	var warm bytes.Buffer
	if err := warmSys.Checkpoint(&warm); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(warm.Bytes(), WarmStart(cfg, warmEpochs(cfg.Duration))) {
		t.Fatal("audited warm-up diverged from WarmStart")
	}
	for _, pol := range PolicyNames {
		cfg := cfg
		cfg.Policy = pol
		sys, err := system.Resume(bytes.NewReader(warm.Bytes()), cfg.systemConfig(NewPolicy(pol)))
		if err != nil {
			t.Fatal(err)
		}
		audit(sys, pol+" resume")
		for sim.Duration(sys.Now()) < cfg.Duration {
			sys.RunEpoch()
			audit(sys, pol)
		}
	}
}
