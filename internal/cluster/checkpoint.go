package cluster

import (
	"bytes"
	"fmt"
	"io"

	"vulcan/internal/checkpoint"
	"vulcan/internal/metrics"
	"vulcan/internal/system"
)

// Fleet checkpoint layout: one outer container holding a "fleet"
// section (scheduler identity, fleet clock, job placement states, the
// per-host placement logs and the fleet-level metrics) plus one
// "host.N" section per host, each embedding that host's complete
// system checkpoint blob as opaque bytes. Per-host blobs keep their own
// magic, section CRCs and versions, so corruption inside one host is
// caught by the same machinery that guards single-machine checkpoints.
const (
	fleetVersion     = 1
	fleetHostVersion = 1
)

// Checkpoint serializes the fleet at a fleet-epoch boundary.
func (f *Fleet) Checkpoint(w io.Writer) error {
	cw := checkpoint.NewWriter()

	e := cw.Section("fleet", fleetVersion)
	e.String(f.sched.Name())
	e.U64(f.cfg.Seed)
	e.Int(len(f.hosts))
	e.Int(f.epoch)
	e.Int(f.moves)
	e.Int(f.rebalances)
	e.U64(f.migratedPages)
	f.cfi.Snapshot(e)
	e.Int(len(f.jobs))
	for _, j := range f.jobs {
		e.String(j.Spec.App.Name)
		e.Int(j.HostID)
		e.Int(j.Gen)
		e.Bool(j.Done)
	}
	for _, log := range f.hostLog {
		e.Int(len(log))
		for _, rec := range log {
			e.Int(rec.jobIdx)
			e.Int(rec.gen)
		}
	}
	for _, h := range f.hosts {
		h.opsHist.Snapshot(e)
	}

	for i, h := range f.hosts {
		var blob bytes.Buffer
		if err := h.Sys.Checkpoint(&blob); err != nil {
			return fmt.Errorf("cluster: host %d: %w", i, err)
		}
		cw.Section(fmt.Sprintf("host.%d", i), fleetHostVersion).Bytes64(blob.Bytes())
	}

	_, err := cw.WriteTo(w)
	return err
}

// Resume rebuilds a fleet from a checkpoint written by Checkpoint. cfg
// must describe the same experiment (hosts, scheduler, seed, job list);
// each host's app history is replayed from the recorded placement log,
// then overlaid with that host's embedded checkpoint.
func Resume(r io.Reader, cfg Config) (*Fleet, error) {
	cfg.fillDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sched, err := NewScheduler(cfg.Scheduler)
	if err != nil {
		return nil, err
	}

	cr, err := checkpoint.NewReader(r)
	if err != nil {
		return nil, err
	}
	d, err := cr.Section("fleet", fleetVersion)
	if err != nil {
		return nil, err
	}
	if name := d.String(); name != sched.Name() {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("cluster: checkpoint scheduler %q, config scheduler %q", name, sched.Name())
	}
	if seed := d.U64(); seed != cfg.Seed {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("cluster: checkpoint seed %d, config seed %d", seed, cfg.Seed)
	}
	if n := d.Int(); n != cfg.Hosts {
		if d.Err() != nil {
			return nil, d.Err()
		}
		return nil, fmt.Errorf("cluster: checkpoint has %d hosts, config has %d", n, cfg.Hosts)
	}

	f := &Fleet{
		cfg:     cfg,
		sched:   sched,
		cfi:     metrics.NewCFITracker(len(cfg.Jobs)),
		hostLog: make([][]placeRec, cfg.Hosts),
	}
	f.epoch = d.Int()
	f.moves = d.Int()
	f.rebalances = d.Int()
	f.migratedPages = d.U64()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if f.epoch < 0 || f.moves < 0 || f.rebalances < 0 {
		return nil, fmt.Errorf("cluster: negative counters in checkpoint")
	}
	if err := f.cfi.Restore(d); err != nil {
		return nil, err
	}
	nJobs := d.Length(16)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nJobs != len(cfg.Jobs) {
		return nil, fmt.Errorf("cluster: checkpoint has %d jobs, config has %d", nJobs, len(cfg.Jobs))
	}
	for i, spec := range cfg.Jobs {
		j := &Job{Idx: i, Spec: spec, HostID: -1}
		name := d.String()
		j.HostID = d.Int()
		j.Gen = d.Int()
		j.Done = d.Bool()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if name != spec.App.Name {
			return nil, fmt.Errorf("cluster: checkpoint job %q, config job %q", name, spec.App.Name)
		}
		if j.HostID < -1 || j.HostID >= cfg.Hosts || j.Gen < 0 {
			return nil, fmt.Errorf("cluster: job %q has invalid placement in checkpoint", name)
		}
		if j.Done && j.HostID >= 0 {
			return nil, fmt.Errorf("cluster: job %q both departed and placed in checkpoint", name)
		}
		f.jobs = append(f.jobs, j)
	}
	for h := 0; h < cfg.Hosts; h++ {
		n := d.Length(16)
		if d.Err() != nil {
			return nil, d.Err()
		}
		for i := 0; i < n; i++ {
			rec := placeRec{jobIdx: d.Int(), gen: d.Int()}
			if d.Err() != nil {
				return nil, d.Err()
			}
			if rec.jobIdx < 0 || rec.jobIdx >= len(f.jobs) || rec.gen < 0 {
				return nil, fmt.Errorf("cluster: host %d has invalid placement record in checkpoint", h)
			}
			f.hostLog[h] = append(f.hostLog[h], rec)
		}
	}
	hists := make([]*metrics.Histogram, cfg.Hosts)
	for h := 0; h < cfg.Hosts; h++ {
		hist, err := metrics.RestoreHistogram(d)
		if err != nil {
			return nil, err
		}
		hists[h] = hist
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	// Rebuild each host: its historical app list (every placement,
	// moved-away and departed instances included) comes from the
	// placement log; the embedded blob then rebuilds the running
	// instances, restores the stopped ones' summaries and overlays the
	// live state.
	for h := 0; h < cfg.Hosts; h++ {
		hd, err := cr.Section(fmt.Sprintf("host.%d", h), fleetHostVersion)
		if err != nil {
			return nil, err
		}
		blob := hd.Bytes64()
		if err := hd.Close(); err != nil {
			return nil, err
		}
		scfg := cfg.hostConfig(h)
		for _, rec := range f.hostLog[h] {
			ac := f.jobs[rec.jobIdx].Spec.App
			ac.Name = instName(f.jobs[rec.jobIdx].Spec, rec.gen)
			ac.StartAt = 0
			scfg.Apps = append(scfg.Apps, ac)
		}
		sys, err := system.Resume(bytes.NewReader(blob), scfg)
		if err != nil {
			return nil, fmt.Errorf("cluster: host %d: %w", h, err)
		}
		f.hosts = append(f.hosts, &Host{ID: h, Sys: sys, opsHist: hists[h]})
	}

	// Reattach live instances to their jobs.
	for _, j := range f.jobs {
		if !j.Placed() {
			continue
		}
		app := f.hosts[j.HostID].Sys.App(instName(j.Spec, j.Gen))
		if app == nil || !app.Started() || app.Stopped() {
			return nil, fmt.Errorf("cluster: job %q placed on host %d but not running there", j.Spec.App.Name, j.HostID)
		}
		j.app = app
	}
	return f, nil
}
