package fault

import (
	"vulcan/internal/mem"
	"vulcan/internal/obs"
)

// Injector answers "does this fault fire here?" queries from the
// instrumented layers. It is compiled from a Plan once per run and is
// stateless with respect to the queries: every answer is a pure hash of
// the mixed seed and the caller's simulation coordinates, so neither
// query order nor lab worker count can perturb the schedule.
type Injector struct {
	seed  uint64
	sink  obs.Sink
	rules [NumKinds][]compiledRule
	// injected counts faults actually fired, per kind (read by FigR and
	// the report via Counts).
	injected [NumKinds]uint64
}

type compiledRule struct {
	scope     string
	scopeHash uint64
	rate      float64
	severity  float64
}

// NewInjector compiles plan into an injector keyed to the scenario
// seed. A nil plan, or one whose rules can never fire, yields a nil
// injector — the hooks throughout the stack treat nil as "chaos off"
// and execute the exact pre-fault arithmetic.
func NewInjector(plan *Plan, scenarioSeed uint64, sink obs.Sink) *Injector {
	if !plan.Armed() {
		return nil
	}
	inj := &Injector{
		// Mix both seeds through one splitmix step so (seed, fault-seed)
		// pairs that happen to XOR equal still diverge.
		seed: mix(scenarioSeed ^ 0x6c62272e07bb0142 ^ plan.Seed*0x100000001b3),
		sink: sink,
	}
	for _, r := range plan.Rules {
		if r.Rate <= 0 {
			continue
		}
		cr := compiledRule{scope: r.Scope, scopeHash: hashString(r.Scope), rate: r.Rate, severity: r.Severity}
		// Exact scopes are consulted before wildcards; within a
		// precedence class, declaration order wins.
		if r.Scope != "" {
			inj.rules[r.Kind] = append([]compiledRule{cr}, inj.rules[r.Kind]...)
		} else {
			inj.rules[r.Kind] = append(inj.rules[r.Kind], cr)
		}
	}
	return inj
}

// Counts returns per-kind totals of faults fired so far.
func (inj *Injector) Counts() [NumKinds]uint64 {
	if inj == nil {
		return [NumKinds]uint64{}
	}
	return inj.injected
}

// rule finds the first rule of kind k matching scope (exact before
// wildcard). ok is false when none is armed.
func (inj *Injector) rule(k Kind, scope string) (compiledRule, bool) {
	for _, r := range inj.rules[k] {
		if r.scope == "" || r.scope == scope {
			return r, true
		}
	}
	return compiledRule{}, false
}

// mix is the SplitMix64 finalizer, the same avalanche the sim RNG's
// seeding uses; it turns structured coordinate tuples into uniform
// 64-bit values.
func mix(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// hashString is FNV-1a, inlined to keep the package dependency-free.
func hashString(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001b3
	}
	return h
}

// u01 derives the uniform draw for one (kind, scope, a, b) coordinate.
// Distinct odd multipliers per component keep e.g. (a=1,b=2) and
// (a=2,b=1) uncorrelated.
func (inj *Injector) u01(k Kind, scopeHash, a, b uint64) float64 {
	h := mix(inj.seed ^ uint64(k)*0x9e3779b97f4a7c15 ^ scopeHash*0xff51afd7ed558ccd ^ a*0xc4ceb9fe1a85ec53 ^ b*0xd6e8feb86659fd93)
	return float64(h>>11) / (1 << 53)
}

// fires evaluates the rule for (kind, scope) at coordinates (a, b).
func (inj *Injector) fires(k Kind, scope string, a, b uint64) (compiledRule, bool) {
	r, ok := inj.rule(k, scope)
	if !ok {
		return r, false
	}
	return r, inj.u01(k, r.scopeHash, a, b) < r.rate
}

// emit records one fired fault on the injector's sink.
func (inj *Injector) emit(k Kind, scope, app string, severity float64, fields ...obs.Field) {
	inj.injected[k]++
	if !obs.Enabled(inj.sink, obs.EvFaultInject) {
		return
	}
	e := obs.E(obs.EvFaultInject, app, "fault", 0, fields...)
	e.Note = k.String()
	e.Fields = append(e.Fields, obs.F("kind", float64(k)), obs.F("severity", severity))
	if scope != app {
		// Tier-scoped faults carry the tier index in a field; App stays
		// machine-scoped ("").
		e.Fields = append(e.Fields, obs.F("scope", hashFieldless(scope)))
	}
	inj.sink.Event(e)
}

// hashFieldless maps a tier scope name to a small stable number for the
// event field ("fast"→0, "slow"→1, ""→-1).
func hashFieldless(scope string) float64 {
	switch scope {
	case mem.TierFast.String():
		return float64(mem.TierFast)
	case mem.TierSlow.String():
		return float64(mem.TierSlow)
	}
	return -1
}

// --- Per-layer queries -------------------------------------------------

// MigrationFails reports whether the migration of virtual page vp for
// app fails transiently in engine batch batchSeq. Keying by batch means
// a page that failed once draws fresh on retry instead of failing
// forever.
func (inj *Injector) MigrationFails(app string, vp uint64, batchSeq uint64) bool {
	if inj == nil {
		return false
	}
	r, fired := inj.fires(MigrationFail, app, vp, batchSeq)
	if fired {
		inj.emit(MigrationFail, app, app, r.severity,
			obs.F("vpage", float64(vp)), obs.F("batch", float64(batchSeq)))
	}
	return fired
}

// IPIDelayCycles returns the extra acknowledgment latency (cycles per
// IPI target) injected into app's shootdown for batch batchSeq, or 0.
func (inj *Injector) IPIDelayCycles(app string, batchSeq uint64) float64 {
	if inj == nil {
		return 0
	}
	r, fired := inj.fires(IPIDelay, app, batchSeq, 0x1b1)
	if !fired {
		return 0
	}
	inj.emit(IPIDelay, app, app, r.severity, obs.F("batch", float64(batchSeq)))
	return r.severity
}

// BandwidthFactor returns the tier's bandwidth multiplier for the epoch
// (1 when no degradation window is open, 1-severity when one is).
func (inj *Injector) BandwidthFactor(tier mem.TierID, epoch uint64) float64 {
	if inj == nil {
		return 1
	}
	scope := tier.String()
	r, fired := inj.fires(BandwidthDegrade, scope, epoch, 0x2b2)
	if !fired {
		return 1
	}
	inj.emit(BandwidthDegrade, scope, "", r.severity,
		obs.F("tier", float64(tier)), obs.F("epoch", float64(epoch)))
	return 1 - r.severity
}

// LatencyFactor returns the tier's latency multiplier for the epoch
// (1 when quiet, 1+severity during a spike).
func (inj *Injector) LatencyFactor(tier mem.TierID, epoch uint64) float64 {
	if inj == nil {
		return 1
	}
	scope := tier.String()
	r, fired := inj.fires(LatencySpike, scope, epoch, 0x3c3)
	if !fired {
		return 1
	}
	inj.emit(LatencySpike, scope, "", r.severity,
		obs.F("tier", float64(tier)), obs.F("epoch", float64(epoch)))
	return 1 + r.severity
}

// PressurePages returns how many fast-tier frames an external burst
// seizes this epoch (0 when quiet); fastCap is the tier's total frame
// count.
func (inj *Injector) PressurePages(epoch uint64, fastCap int) int {
	if inj == nil {
		return 0
	}
	r, fired := inj.fires(MemPressure, "", epoch, 0x4d4)
	if !fired {
		return 0
	}
	pages := int(r.severity * float64(fastCap))
	if pages <= 0 {
		return 0
	}
	inj.emit(MemPressure, "", "", r.severity,
		obs.F("epoch", float64(epoch)), obs.F("pages", float64(pages)))
	return pages
}

// Profile returns the per-app sampling fault stream, opened at epoch 0
// with confidence 1, or nil when neither PEBS fault kind is armed for
// the app.
func (inj *Injector) Profile(app string) *ProfileFaults {
	if inj == nil {
		return nil
	}
	_, drops := inj.rule(PEBSDrop, app)
	_, overflows := inj.rule(PEBSOverflow, app)
	if !drops && !overflows {
		return nil
	}
	return &ProfileFaults{inj: inj, app: app, confidence: 1}
}

// ProfileFaults is the per-app sampling fault stream: it decides which
// PEBS samples are lost and derives each epoch's profiler confidence.
// Unlike the Injector's window queries it is intentionally stateful
// (epoch and sample index, kept/dropped tallies) — but the state is
// owned by one app's serial sampling loop, so determinism is preserved.
type ProfileFaults struct {
	inj *Injector
	app string

	// The open epoch: its index, the next sample's index and the tallies.
	epoch   uint64
	sample  uint64 //vulcan:nosnap per-epoch tally, zero at epoch boundaries
	kept    uint64 //vulcan:nosnap per-epoch tally, zero at epoch boundaries
	dropped uint64 //vulcan:nosnap per-epoch tally, zero at epoch boundaries

	// The last closed epoch, latched by EndEpoch.
	confidence float64
	overflowed bool
	lost       uint64
}

// DropSample reports whether the next profiler sample is lost. The
// per-sample draw keys on (epoch, sample index) so streams replay
// identically regardless of how many samples other apps take.
//
//vulcan:hotpath
func (pf *ProfileFaults) DropSample() bool {
	i := pf.sample
	pf.sample++
	// Overflow epochs lose an extra Severity fraction of samples on top
	// of the steady-state drop rate.
	if r, fired := pf.inj.fires(PEBSOverflow, pf.app, pf.epoch, 0x5e5); fired {
		if pf.inj.u01(PEBSOverflow, hashString(pf.app), pf.epoch^0xa5a5, i) < r.severity {
			pf.dropped++
			return true
		}
	}
	if _, fired := pf.inj.fires(PEBSDrop, pf.app, pf.epoch, i); fired {
		pf.dropped++
		return true
	}
	pf.kept++
	return false
}

// EndEpoch closes the open epoch and opens the next one. It latches the
// closed epoch's confidence (fraction of samples that survived; 1 when
// no samples were attempted), whether its ring buffer overflowed, and
// how many samples it dropped. Fired faults are emitted here as one
// aggregate event per kind per epoch rather than per sample.
func (pf *ProfileFaults) EndEpoch() {
	pf.confidence = 1
	if total := pf.kept + pf.dropped; total > 0 {
		pf.confidence = float64(pf.kept) / float64(total)
	}
	_, pf.overflowed = pf.inj.fires(PEBSOverflow, pf.app, pf.epoch, 0x5e5)
	pf.lost = pf.dropped
	if pf.lost > 0 {
		kind := PEBSDrop
		if pf.overflowed {
			kind = PEBSOverflow
		}
		r, _ := pf.inj.rule(kind, pf.app)
		pf.inj.emit(kind, pf.app, pf.app, r.severity,
			obs.F("epoch", float64(pf.epoch)),
			obs.F("dropped", float64(pf.lost)),
			obs.F("kept", float64(pf.kept)))
	}
	pf.open(pf.epoch + 1)
}

// open starts epoch with empty tallies.
func (pf *ProfileFaults) open(epoch uint64) {
	pf.epoch = epoch
	pf.sample, pf.kept, pf.dropped = 0, 0, 0
}

// Confidence returns the fraction of the last closed epoch's samples
// that survived injection (1 before any epoch has closed).
func (pf *ProfileFaults) Confidence() float64 { return pf.confidence }

// Overflowed reports whether the last closed epoch hit a ring-buffer
// overflow window.
func (pf *ProfileFaults) Overflowed() bool { return pf.overflowed }

// Dropped returns how many samples the last closed epoch lost.
func (pf *ProfileFaults) Dropped() uint64 { return pf.lost }
