package system

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"vulcan/internal/sim"
)

// Report is a machine-readable summary of a finished (or in-flight)
// co-location run, suitable for JSON output and downstream analysis.
type Report struct {
	Policy        string      `json:"policy"`
	Epochs        int         `json:"epochs"`
	SimSeconds    float64     `json:"sim_seconds"`
	FastCapacity  int         `json:"fast_capacity_pages"`
	FastUsed      int         `json:"fast_used_pages"`
	SlowCapacity  int         `json:"slow_capacity_pages"`
	SlowUsed      int         `json:"slow_used_pages"`
	CFI           float64     `json:"cfi"`
	Mechanisms    Mechanisms  `json:"mechanisms"`
	Apps          []AppReport `json:"apps"`
	AuditOK       bool        `json:"audit_ok"`
	AuditProblems []string    `json:"audit_problems,omitempty"`
}

// AppReport summarizes one application.
type AppReport struct {
	Name            string  `json:"name"`
	Class           string  `json:"class"`
	Started         bool    `json:"started"`
	Stopped         bool    `json:"stopped,omitempty"`
	RSSPages        int     `json:"rss_pages"`
	FastPages       int     `json:"fast_pages"`
	FTHR            float64 `json:"fthr"`
	MeanPerf        float64 `json:"mean_perf"`
	PerfCI95        float64 `json:"perf_ci95"`
	TotalOps        float64 `json:"total_ops"`
	MigrationMoved  uint64  `json:"migration_moved"`
	MigrationRemaps uint64  `json:"migration_remapped"`
	MigrationAborts uint64  `json:"migration_aborted"`
	MigrationCycles float64 `json:"migration_cycles"`
	THPGroups       int     `json:"thp_groups"`
	THPSplits       uint64  `json:"thp_splits"`
}

// Report builds the summary, including a frame-ownership audit.
func (s *System) Report() Report {
	fast, slow := s.tiers.Fast(), s.tiers.Slow()
	audit := s.Audit()
	r := Report{
		Policy:        s.policy.Name(),
		Epochs:        s.epoch,
		SimSeconds:    sim.Duration(s.Now()).Seconds(),
		FastCapacity:  fast.Capacity(),
		FastUsed:      fast.Used(),
		SlowCapacity:  slow.Capacity(),
		SlowUsed:      slow.Used(),
		CFI:           s.cfi.Index(),
		Mechanisms:    s.Mechanisms(),
		AuditOK:       audit.Ok(),
		AuditProblems: audit.Errors,
	}
	for _, a := range s.apps {
		ar := AppReport{
			Name:    a.Cfg.Name,
			Class:   a.Cfg.Class.String(),
			Started: a.started,
			Stopped: a.stopped,
		}
		if a.stopped {
			// Only the durable summary survives a stop (and a checkpoint
			// resume): runtime structures like Async stats are gone.
			perf := a.NormalizedPerf()
			ar.FTHR = a.FTHR()
			ar.MeanPerf = perf.Mean()
			ar.PerfCI95 = perf.CI95()
			ar.TotalOps = a.TotalOps()
		}
		if a.started {
			st := a.Async.Stats()
			perf := a.NormalizedPerf()
			ar.RSSPages = a.RSSMapped()
			ar.FastPages = a.FastPages()
			ar.FTHR = a.FTHR()
			ar.MeanPerf = perf.Mean()
			ar.PerfCI95 = perf.CI95()
			ar.TotalOps = a.TotalOps()
			ar.MigrationMoved = st.Moved
			ar.MigrationRemaps = st.Remapped
			ar.MigrationAborts = st.Aborted
			ar.MigrationCycles = st.CyclesUsed
			ar.THPGroups = a.Table.HugeLeaves()
			ar.THPSplits = a.thpSplits
		}
		r.Apps = append(r.Apps, ar)
	}
	return r
}

// WriteJSON emits the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable run summary (vulcansim's default
// output). A report with no applications means the run never configured
// anything worth summarizing, so it is rejected rather than printed as
// a bare header.
func (r Report) WriteText(w io.Writer) error {
	if len(r.Apps) == 0 {
		return errors.New("report: empty run (no applications)")
	}
	var b strings.Builder
	fmt.Fprintf(&b, "policy=%s  simulated=%.0fs  fast tier used %d/%d pages\n",
		r.Policy, r.SimSeconds, r.FastUsed, r.FastCapacity)
	fmt.Fprintf(&b, "%-12s %-5s %12s %10s %10s %12s %12s\n",
		"app", "class", "perf", "±ci95", "fthr", "fast pages", "rss pages")
	for _, a := range r.Apps {
		if a.Stopped {
			fmt.Fprintf(&b, "%-12s %-5s %12.3f %10.3f %10.3f %12s %12s\n",
				a.Name, a.Class, a.MeanPerf, a.PerfCI95, a.FTHR,
				"(stopped)", "-")
			continue
		}
		if !a.Started {
			fmt.Fprintf(&b, "%-12s (never started)\n", a.Name)
			continue
		}
		fmt.Fprintf(&b, "%-12s %-5s %12.3f %10.3f %10.3f %12d %12d\n",
			a.Name, a.Class, a.MeanPerf, a.PerfCI95, a.FTHR,
			a.FastPages, a.RSSPages)
	}
	fmt.Fprintf(&b, "CFI (FTHR-weighted cumulative fairness, Eq.4): %.3f\n", r.CFI)
	if !r.AuditOK {
		fmt.Fprintf(&b, "WARNING: frame-ownership audit failed: %v\n", r.AuditProblems)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
