package figures

import (
	"bytes"
	"fmt"
	"testing"

	"vulcan/internal/fault"
	"vulcan/internal/obs"
	"vulcan/internal/system"
)

// TestCheckpointReencodesIdentically cuts a checkpoint, resumes it and
// checkpoints the resumed system again, for every policy with and
// without faults and telemetry: the two blobs must match byte for
// byte. A field restored into the wrong place, or written by Snapshot
// but skipped by Restore, fails it.
func TestCheckpointReencodesIdentically(t *testing.T) {
	const epochs = 12
	for _, pol := range PolicyNames {
		for _, faulted := range []bool{false, true} {
			for _, observed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/faults=%v/obs=%v", pol, faulted, observed), func(t *testing.T) {
					config := func() system.Config {
						cfg := ColocationConfig{Scale: 16, Staggered: true}.normalized()
						if faulted {
							cfg.Faults = fault.PlanAtRate(0.1)
						}
						if observed {
							cfg.Obs = obs.NewRecorder()
						}
						return cfg.systemConfig(NewPolicy(pol))
					}
					sys := system.New(config())
					for i := 0; i < epochs; i++ {
						sys.RunEpoch()
					}
					var blob bytes.Buffer
					if err := sys.Checkpoint(&blob); err != nil {
						t.Fatal(err)
					}
					resumed, err := system.Resume(bytes.NewReader(blob.Bytes()), config())
					if err != nil {
						t.Fatal(err)
					}
					var again bytes.Buffer
					if err := resumed.Checkpoint(&again); err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blob.Bytes(), again.Bytes()) {
						t.Fatalf("re-encoded checkpoint differs (%d vs %d bytes)", blob.Len(), again.Len())
					}
				})
			}
		}
	}
}
