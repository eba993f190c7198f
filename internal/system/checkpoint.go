package system

import (
	"fmt"
	"io"

	"vulcan/internal/checkpoint"
	"vulcan/internal/mem"
	"vulcan/internal/metrics"
	"vulcan/internal/migrate"
	"vulcan/internal/profile"
)

// Section versions. Bump a section's version when its wire layout
// changes; Resume then rejects checkpoints written under the old layout
// instead of misreading them.
const (
	metaVersion    = 1
	clockVersion   = 1
	machineVersion = 1
	// memVersion 2 drops the per-tier access counters.
	memVersion = 2
	// systemVersion 3 drops the stop log: a retired app is its summary,
	// so the admission order lists only running apps and Resume rebuilds
	// only those, with no stop chronology to replay.
	systemVersion  = 3
	metricsVersion = 1
	// appVersion 3 appends the async-migrator backpressure tallies and the
	// dynamic intensity override; appVersion 4 drops the lifetime tallies
	// nothing reads (async enqueued/retries/shed/displaced, retrier
	// noted/cycles, shadows created), the TLB flush count, the perf
	// summary's min/max and the trace replayer's loop count; appVersion 5
	// drops the backpressure tallies with the bounded async backlog.
	appVersion = 5
	// profilerVersion tracks the profile package's snapshot layout.
	profilerVersion = profile.SnapshotVersion
	// policyVersion 2 drops Vulcan's Colloid-gate flag with the gate.
	policyVersion = 2
	faultVersion  = 1
	// appFaultsVersion tracks fault.ProfileFaults' snapshot layout.
	appFaultsVersion = 1
	// obsVersion 3 drops the recorder's flush-boundary marks (the trace
	// no longer interleaves cost counter samples, so nothing reads them)
	// and renumbers the event types after the deleted THP-collapse slot;
	// obsVersion 4 drops the registry's counter block with the counter
	// kind.
	obsVersion = 4
)

// Checkpoint serializes the full simulation state to w as one versioned
// checkpoint blob. It must be called at an epoch boundary (between
// RunEpoch calls): mid-epoch scratch state is deliberately not part of
// the format.
//
// The blob composes one section per stateful layer. Scratch state —
// per-epoch accumulators, staged migration batches, policy queue
// contents — is reconstructed, not serialized; the durable remainder is
// enough that Resume followed by the remaining epochs produces output
// byte-identical to an uninterrupted run.
func (s *System) Checkpoint(w io.Writer) error {
	cw := checkpoint.NewWriter()

	meta := cw.Section("meta", metaVersion)
	meta.String(s.policy.Name())
	meta.U64(s.cfg.Seed)
	meta.Int(len(s.apps))
	meta.Int(s.epoch)

	s.m.Clock.Snapshot(cw.Section("clock", clockVersion))
	s.m.RNG.Snapshot(cw.Section("machine", machineVersion))

	sys := cw.Section("system", systemVersion)
	s.rng.Snapshot(sys)
	sys.Int(s.epoch)
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		sys.F64(s.bwUtil[t])
		sys.F64(s.latSpike[t])
		sys.F64(s.bwFault[t])
	}
	sys.Int(len(s.admitOrder))
	for _, idx := range s.admitOrder {
		sys.Int(idx)
	}
	sys.Int(len(s.pressure))
	for _, f := range s.pressure {
		sys.U8(uint8(f.Tier))
		sys.U32(f.Index)
	}
	s.cfi.Snapshot(sys)

	s.tiers.Snapshot(cw.Section("mem", memVersion))
	s.recorder.Snapshot(cw.Section("metrics", metricsVersion))

	for i, a := range s.apps {
		a.snapshot(cw.Section(fmt.Sprintf("app.%d", i), appVersion))
		if a.started {
			profile.SnapshotProfiler(
				cw.Section(fmt.Sprintf("app.%d.profiler", i), profilerVersion), a.Profiler)
			if a.sampleFaults != nil {
				a.sampleFaults.Snapshot(cw.Section(fmt.Sprintf("app.%d.faults", i), appFaultsVersion))
			}
		}
	}

	if ps, ok := s.policy.(checkpoint.Snapshotter); ok {
		ps.Snapshot(cw.Section("policy", policyVersion))
	}
	if s.inj != nil {
		s.inj.Snapshot(cw.Section("fault", faultVersion))
	}
	if rec, ok := s.obs.(checkpoint.Snapshotter); ok {
		rec.Snapshot(cw.Section("obs", obsVersion))
	}

	_, err := cw.WriteTo(w)
	return err
}

// Resume rebuilds a system from a checkpoint written by Checkpoint.
// cfg must describe the same experiment (seed, machine shape, app
// list); the policy may differ — that is the branch-from-snapshot path.
// When it does, the checkpointed policy, profiler and sample-fault
// state is skipped and the new policy starts cold, so every branch
// forks from identical substrate state and none inherits another
// policy's learned placement hints.
//
// The restored system continues exactly where the checkpointed one
// stopped: with the same cfg (policy included), running it to the
// original end time produces report, trace and metrics output
// byte-identical to the uninterrupted run.
func Resume(r io.Reader, cfg Config) (*System, error) {
	return resume(r, cfg, (*System).rebuild)
}

// rebuild brings back one app the checkpointed run had admitted: its
// runtime objects and its policy registration, never its premap. The
// overlays Resume applies next supply the frames, tables and RNG state;
// a placer that counts its placements is told what the premap's Place
// calls would have left (DESIGN.md §11).
func (s *System) rebuild(a *App) {
	a.build(s)
	if pp, ok := s.placer.(PremapPlacer); ok {
		_, _, n := a.premapLayout()
		pp.Premapped(s, a, n)
	}
	s.policy.AppStarted(s, a)
}

// resume is Resume with the per-app admission step as a parameter.
func resume(r io.Reader, cfg Config, admit func(*System, *App)) (*System, error) {
	cr, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}

	meta, err := cr.Section("meta", metaVersion)
	if err != nil {
		return nil, err
	}
	ckptPolicy := meta.String()
	seed := meta.U64()
	nApps := meta.Int()
	metaEpoch := meta.Int()
	if err := meta.Close(); err != nil {
		return nil, err
	}

	s := New(cfg)
	if s.cfg.Seed != seed {
		return nil, fmt.Errorf("system: checkpoint seed %d, config seed %d", seed, s.cfg.Seed)
	}
	if nApps != len(s.apps) {
		return nil, fmt.Errorf("system: checkpoint has %d apps, config has %d", nApps, len(s.apps))
	}
	samePolicy := s.policy.Name() == ckptPolicy

	// System scalars and the admission order, needed before any app can
	// be admitted.
	sys, err := cr.Section("system", systemVersion)
	if err != nil {
		return nil, err
	}
	if err := s.rng.Restore(sys); err != nil {
		return nil, err
	}
	s.epoch = sys.Int()
	for t := mem.TierID(0); t < mem.NumTiers; t++ {
		s.bwUtil[t] = sys.F64()
		s.latSpike[t] = sys.F64()
		s.bwFault[t] = sys.F64()
	}
	nAdmit := sys.Length(8)
	if sys.Err() != nil {
		return nil, sys.Err()
	}
	if s.epoch < 0 || s.epoch != metaEpoch {
		return nil, fmt.Errorf("system: epoch %d in checkpoint, manifest says %d", s.epoch, metaEpoch)
	}
	admitted := make([]bool, len(s.apps))
	for i := 0; i < nAdmit; i++ {
		idx := sys.Int()
		if sys.Err() != nil {
			return nil, sys.Err()
		}
		if idx < 0 || idx >= len(s.apps) || admitted[idx] {
			return nil, fmt.Errorf("system: bad admission entry %d in checkpoint", idx)
		}
		admitted[idx] = true
		s.admitOrder = append(s.admitOrder, idx)
	}
	nPressure := sys.Length(5)
	if sys.Err() != nil {
		return nil, sys.Err()
	}
	for i := 0; i < nPressure; i++ {
		f := mem.Frame{Tier: mem.TierID(sys.U8()), Index: sys.U32()}
		if sys.Err() != nil {
			return nil, sys.Err()
		}
		if f.IsNil() || int(f.Index) >= s.tiers.Tier(f.Tier).Capacity() {
			return nil, fmt.Errorf("system: pressure frame %v out of range in checkpoint", f)
		}
		s.pressure = append(s.pressure, f)
	}
	if err := s.cfi.Restore(sys); err != nil {
		return nil, err
	}
	if err := sys.Close(); err != nil {
		return nil, err
	}

	// Rebuild the running apps in the recorded order, so policies
	// register workloads in the same sequence as the checkpointed run.
	// Retired apps are not rebuilt: their app sections restore the
	// summary directly.
	for _, idx := range s.admitOrder {
		admit(s, s.apps[idx])
	}

	// Substrate overlays. Tiers go wholesale after admissions so the
	// free-list order — part of the determinism contract — is exact.
	if err := cr.Restore("clock", clockVersion, s.m.Clock); err != nil {
		return nil, err
	}
	if err := cr.Restore("machine", machineVersion, s.m.RNG); err != nil {
		return nil, err
	}
	if err := cr.Restore("mem", memVersion, s.tiers); err != nil {
		return nil, err
	}

	// Per-app overlays; profiler and sample-fault state only when the
	// policy (and hence the profiler construction) matches the
	// checkpointed run. A sample-fault stream restores only when both
	// runs have one; otherwise it keeps its fresh state.
	for i, a := range s.apps {
		d, err := cr.Section(fmt.Sprintf("app.%d", i), appVersion)
		if err != nil {
			return nil, err
		}
		if err := a.restore(d); err != nil {
			return nil, err
		}
		if err := d.Close(); err != nil {
			return nil, err
		}
		if a.started && samePolicy {
			pd, err := cr.Section(fmt.Sprintf("app.%d.profiler", i), profilerVersion)
			if err != nil {
				return nil, err
			}
			if err := profile.RestoreProfiler(pd, a.Profiler, profilerVersion); err != nil {
				return nil, err
			}
			if err := pd.Close(); err != nil {
				return nil, err
			}
			name := fmt.Sprintf("app.%d.faults", i)
			if a.sampleFaults != nil && cr.Has(name) {
				if err := cr.Restore(name, appFaultsVersion, a.sampleFaults); err != nil {
					return nil, err
				}
			}
		}
	}

	// Each section decodes on its own, so only the assembled system can
	// show a page table mapping a frame twice or one the tiers never
	// handed out.
	if audit := s.frameAudit(); !audit.Ok() {
		return nil, fmt.Errorf("system: checkpoint fails the frame audit: %s", audit.Errors[0])
	}

	if samePolicy && cr.Has("policy") {
		ps, ok := s.policy.(checkpoint.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("system: checkpoint carries %q policy state, policy cannot restore it", ckptPolicy)
		}
		if err := cr.Restore("policy", policyVersion, ps); err != nil {
			return nil, err
		}
	}

	if s.inj != nil && cr.Has("fault") {
		if err := cr.Restore("fault", faultVersion, s.inj); err != nil {
			return nil, err
		}
	}

	// Telemetry goes last: nothing emitted while rebuilding may survive
	// into the restored buffers.
	if err := cr.Restore("metrics", metricsVersion, s.recorder); err != nil {
		return nil, err
	}
	if cr.Has("obs") {
		if rec, ok := s.obs.(checkpoint.Snapshotter); ok {
			if err := cr.Restore("obs", obsVersion, rec); err != nil {
				return nil, err
			}
		}
	}

	return s, nil
}

// snapshot appends the app's durable state. Per-epoch accumulators are
// scratch (reset at each epoch start) and are not serialized; the
// carried-over quantities — pending stall, sample weight, smoothed
// FTHR, cumulative series — are.
func (a *App) snapshot(e *checkpoint.Encoder) {
	e.String(a.Cfg.Name)
	e.Bool(a.started)
	e.Bool(a.stopped)
	if a.stopped {
		// A retired app is its reporting summary: StopApp dropped the
		// runtime state (table, engine, profiler) for good.
		a.fthr.Snapshot(e)
		a.perfSeries.Snapshot(e)
		e.F64(a.sampleWeight)
		e.F64(a.epochOps)
		e.F64(a.epochPerf)
		e.F64(a.totalOps)
		return
	}
	if !a.started {
		return
	}
	// The table and the TLBs are nearly all of the section: reserve them
	// at once, so the encoder does not regrow and copy across them.
	n := a.Table.SnapshotSize()
	for _, t := range a.TLBs {
		n += t.SnapshotSize()
	}
	e.Grow(n)
	a.rng.Snapshot(e)
	a.Table.Snapshot(e)
	e.Int(len(a.TLBs))
	for _, t := range a.TLBs {
		t.Snapshot(e)
	}
	e.Int(len(a.Threads))
	for _, th := range a.Threads {
		th.Snapshot(e)
	}
	a.Engine.Snapshot(e)
	a.Async.Snapshot(e)
	e.Bool(a.Retry != nil)
	if a.Retry != nil {
		a.Retry.Snapshot(e)
	}
	// The THP overlay: the huge leaves in ascending order and the
	// lifetime split count.
	e.Bool(!a.sys.cfg.DisableTHP)
	if !a.sys.cfg.DisableTHP {
		e.Int(a.Table.HugeLeaves())
		a.Table.EachHugeLeaf(e.U64)
		e.U64(a.thpSplits)
	}
	a.fthr.Snapshot(e)
	a.perfSeries.Snapshot(e)
	e.F64(a.sampleWeight)
	e.F64(a.pendingStall)
	e.F64(a.epochOps)
	e.F64(a.epochPerf)
	e.F64(a.totalOps)
	e.Int(a.fastPages)
	e.Int(a.rssMapped)
	e.Bool(a.profileDegraded)
	e.Int(a.intensityMilli)
}

// restore overlays the checkpointed state onto the (already admitted,
// when started) app. Fault decoration may differ between the
// checkpointed run and this one — a clean warm-up branching into a
// faulted run, or the reverse — so retry state with no destination is
// discarded and a fresh retrier keeps its empty construction state;
// likewise a run with THP disabled reads and drops the THP overlay.
func (a *App) restore(d *checkpoint.Decoder) error {
	name := d.String()
	ckptStarted := d.Bool()
	ckptStopped := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if name != a.Cfg.Name {
		return fmt.Errorf("system: checkpoint app %q, config app %q", name, a.Cfg.Name)
	}
	// The system section's admission order decided which apps Resume
	// rebuilt; a retired app must not be among them.
	if ckptStarted != a.started || ckptStopped && a.started {
		return fmt.Errorf("system: app %q admission state disagrees with checkpoint manifest", name)
	}
	if ckptStopped {
		a.stopped = true
		a.fthr = metrics.NewEMA(FTHRAlpha)
		a.perfSeries = &metrics.Running{}
		if err := a.fthr.Restore(d); err != nil {
			return err
		}
		if err := a.perfSeries.Restore(d); err != nil {
			return err
		}
		a.sampleWeight = d.F64()
		a.epochOps = d.F64()
		a.epochPerf = d.F64()
		a.totalOps = d.F64()
		return d.Err()
	}
	if !ckptStarted {
		return nil
	}
	if err := a.rng.Restore(d); err != nil {
		return err
	}
	if err := a.Table.Restore(d); err != nil {
		return err
	}
	n := d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(a.TLBs) {
		return fmt.Errorf("system: app %q has %d TLBs in checkpoint, %d configured", name, n, len(a.TLBs))
	}
	for _, t := range a.TLBs {
		if err := t.Restore(d); err != nil {
			return err
		}
	}
	n = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if n != len(a.Threads) {
		return fmt.Errorf("system: app %q has %d threads in checkpoint, %d configured", name, n, len(a.Threads))
	}
	for _, th := range a.Threads {
		if err := th.Restore(d); err != nil {
			return err
		}
	}
	if err := a.Engine.Restore(d); err != nil {
		return err
	}
	if err := a.Async.Restore(d); err != nil {
		return err
	}
	hasRetry := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasRetry {
		target := a.Retry
		if target == nil {
			target = &migrate.Retrier{}
		}
		if err := target.Restore(d); err != nil {
			return err
		}
	}
	hasHuge := d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if hasHuge {
		if err := a.restoreTHP(d); err != nil {
			return err
		}
	}
	if err := a.fthr.Restore(d); err != nil {
		return err
	}
	if err := a.perfSeries.Restore(d); err != nil {
		return err
	}
	a.sampleWeight = d.F64()
	a.pendingStall = d.F64()
	a.epochOps = d.F64()
	a.epochPerf = d.F64()
	a.totalOps = d.F64()
	a.fastPages = d.Int()
	a.rssMapped = d.Int()
	a.profileDegraded = d.Bool()
	a.intensityMilli = d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	if a.pendingStall < 0 || a.fastPages < 0 || a.rssMapped < 0 {
		return fmt.Errorf("system: app %q has negative accounting in checkpoint", name)
	}
	if a.intensityMilli < 0 || a.intensityMilli > 1_000_000 {
		return fmt.Errorf("system: app %q intensity %d out of range in checkpoint", name, a.intensityMilli)
	}
	return nil
}

// restoreTHP reads the THP overlay back onto the table the section has
// just restored: each huge leaf, in ascending order, must be mapped in
// full. A run with THP disabled marks no leaf and keeps no split count.
func (a *App) restoreTHP(d *checkpoint.Decoder) error {
	keep := !a.sys.cfg.DisableTHP
	n := d.Length(8)
	for i, prev := 0, uint64(0); i < n; i++ {
		li := d.U64()
		if d.Err() != nil {
			return d.Err()
		}
		if i > 0 && li <= prev {
			return fmt.Errorf("system: huge leaf %d after %d in checkpoint", li, prev)
		}
		prev = li
		if keep {
			if err := a.Table.SetHuge(li); err != nil {
				return err
			}
		}
	}
	splits := d.U64()
	if keep {
		a.thpSplits = splits
	}
	return d.Err()
}
