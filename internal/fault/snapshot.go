package fault

import (
	"fmt"

	"vulcan/internal/checkpoint"
)

// Snapshot appends the injector's durable state: the per-kind injection
// counts read by reports and figures. Everything else — the compiled
// rules, the mixed seed — is reconstructed from the Plan, and every
// draw is a pure hash of simulation coordinates, so the counts are the
// injector's only evolving state.
func (inj *Injector) Snapshot(e *checkpoint.Encoder) {
	for _, c := range inj.injected {
		e.U64(c)
	}
}

// Restore reads the counts back in place.
func (inj *Injector) Restore(d *checkpoint.Decoder) error {
	for i := range inj.injected {
		inj.injected[i] = d.U64()
	}
	return d.Err()
}

// Snapshot appends the stream's durable state at an epoch boundary: the
// open epoch's index and the closed epoch's latched confidence,
// overflow flag and dropped count. The per-epoch tallies are zero at
// every boundary, and every draw is a pure hash of (epoch, sample
// index), so these four values re-synchronize the stream exactly.
func (pf *ProfileFaults) Snapshot(e *checkpoint.Encoder) {
	e.U64(pf.epoch)
	e.F64(pf.confidence)
	e.Bool(pf.overflowed)
	e.U64(pf.lost)
}

// Restore reads the state back and re-opens the stream at the restored
// epoch. A confidence outside [0, 1] (NaN included) is rejected: it is
// a fraction of samples, and a policy would act on it.
func (pf *ProfileFaults) Restore(d *checkpoint.Decoder) error {
	epoch := d.U64()
	conf := d.F64()
	pf.overflowed = d.Bool()
	pf.lost = d.U64()
	if d.Err() != nil {
		return d.Err()
	}
	if !(conf >= 0 && conf <= 1) {
		return fmt.Errorf("fault: profile confidence %v out of [0, 1] in checkpoint", conf)
	}
	pf.confidence = conf
	pf.open(epoch)
	return nil
}
