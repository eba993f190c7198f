// Command vulcand serves one tiered-memory scenario as a long-running
// daemon: the simulation advances epoch by epoch under an injected
// pacer while a unix-socket HTTP/JSON control API accepts admissions,
// departures and intensity changes between epochs. Every executed
// command is journaled; replaying the journal through the batch
// machinery (vulcansim -replay-journal) reproduces the run's report,
// trace and metrics byte for byte.
//
// Usage:
//
//	vulcand -config scen.json -socket /tmp/v.sock -journal run.journal
//	vulcand ... -speed 4                  # 4 epochs per wall second
//	vulcand ... -speed 0                  # manual mode: POST /v1/step
//	vulcand ... -checkpoint-base run.ckpt -checkpoint-every 30 -checkpoint-retain 3
//	vulcand -resume -config scen.json -journal run.journal -checkpoint-base run.ckpt
//
// Client mode posts one API call over the socket and prints the reply
// (no curl needed in scripts):
//
//	vulcand -socket /tmp/v.sock -post /v1/admit -data '{"app":{"preset":"memcached"},"depart":40}'
//	vulcand -socket /tmp/v.sock -post /v1/step -data '{"epochs":10}'
//	vulcand -socket /tmp/v.sock -get /v1/status
//	vulcand -socket /tmp/v.sock -post /v1/shutdown
//
// Control API (all under the unix socket):
//
//	POST /v1/admit      {"app":{...scenario app...},"name":"n","depart":E}
//	POST /v1/stop       {"name":"n"}
//	POST /v1/intensity  {"name":"n","milli":500}
//	POST /v1/step       {"epochs":N}     (manual mode only)
//	GET  /v1/status
//	POST /v1/checkpoint
//	POST /v1/shutdown                    (suspends resumably mid-run)
//
// Shutdown before the epoch target suspends the run resumably: the
// journal keeps no finish trailer and -resume continues it (from the
// newest rolling checkpoint when -checkpoint-base is armed, else by
// replaying the journal from the start — slower, same bytes). SIGINT
// and SIGTERM trigger the same resumable suspension.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"vulcan/internal/scenario"
	"vulcan/internal/serve"
)

// flags is vulcand's validated command line.
type flags struct {
	socket, postPath, getPath, data string // client mode when postPath or getPath is set
	configPath                      string
	resume                          bool
	speed                           float64
	reportOut                       string
	jsonOut                         bool
	opts                            serve.Options // Scenario is loaded by main
}

// client reports whether the command line asks for one API call
// instead of serving.
func (f *flags) client() bool { return f.postPath != "" || f.getPath != "" }

// parseFlags parses and validates vulcand's arguments. Every rejection
// is a flag combination that would otherwise be ignored or misread.
func parseFlags(args []string) (*flags, error) {
	var f flags
	fs := flag.NewFlagSet("vulcand", flag.ContinueOnError)
	fs.StringVar(&f.configPath, "config", "", "scenario JSON file (see internal/scenario); required to serve")
	fs.StringVar(&f.socket, "socket", "", "unix socket path for the control API (required)")
	fs.StringVar(&f.opts.Journal, "journal", "", "command journal path (required to serve; the run's reproducibility record)")
	fs.StringVar(&f.opts.TraceOut, "trace-out", "", "stream a Chrome trace-event JSON file as the run advances")
	fs.StringVar(&f.opts.MetricsOut, "metrics-out", "", "stream per-epoch metric samples as CSV")
	fs.StringVar(&f.reportOut, "report-out", "", "write the final report to this file (default stdout)")
	fs.BoolVar(&f.jsonOut, "json", false, "emit the final report as JSON")
	fs.StringVar(&f.opts.CheckpointBase, "checkpoint-base", "", "rolling checkpoint base path (images land at base.tNNN.ext)")
	fs.IntVar(&f.opts.CheckpointEvery, "checkpoint-every", 0, "write a rolling checkpoint every N epochs (needs -checkpoint-base)")
	fs.IntVar(&f.opts.CheckpointRetain, "checkpoint-retain", 2, "keep the newest N rolling checkpoints (0 = all)")
	fs.Float64Var(&f.speed, "speed", 1, "epochs per wall-clock second; 0 = manual stepping via POST /v1/step")
	fs.BoolVar(&f.opts.Rescore, "rescore", false, "use the incremental rescore path")
	fs.BoolVar(&f.resume, "resume", false, "recover a killed or suspended run from its journal and newest rolling checkpoint")
	fs.StringVar(&f.postPath, "post", "", "client mode: POST this API path over -socket and print the reply")
	fs.StringVar(&f.getPath, "get", "", "client mode: GET this API path over -socket and print the reply")
	fs.StringVar(&f.data, "data", "", "client mode: JSON request body for -post")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	if f.socket == "" {
		return nil, errors.New("-socket is required")
	}
	if f.client() {
		if f.postPath != "" && f.getPath != "" {
			return nil, errors.New("-post and -get are mutually exclusive")
		}
		return &f, nil
	}

	if f.opts.Journal == "" {
		return nil, errors.New("-journal is required: the journal is the run's reproducibility record")
	}
	if f.opts.CheckpointEvery < 0 || f.opts.CheckpointRetain < 0 {
		return nil, errors.New("-checkpoint-every and -checkpoint-retain must be >= 0")
	}
	if f.opts.CheckpointEvery > 0 && f.opts.CheckpointBase == "" {
		return nil, errors.New("-checkpoint-every needs -checkpoint-base")
	}
	if f.speed < 0 {
		return nil, errors.New("-speed must be >= 0")
	}
	if f.resume {
		// The journal header carries the scenario and simulation knobs;
		// a flag here that sets them would be ignored, which should not
		// pass silently.
		if f.configPath != "" {
			return nil, errors.New("-resume reads the scenario from the journal header; drop -config")
		}
		rescoreSet := false
		fs.Visit(func(fl *flag.Flag) { rescoreSet = rescoreSet || fl.Name == "rescore" })
		if rescoreSet {
			return nil, errors.New("-resume reads -rescore from the journal header; drop it")
		}
	} else if f.configPath == "" {
		return nil, errors.New("-config is required (or -resume to continue an existing journal)")
	}
	return &f, nil
}

func main() {
	f, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		log.Fatal(err)
	}
	if f.client() {
		os.Exit(client(f.socket, f.postPath, f.getPath, f.data))
	}

	opts := f.opts
	var s *serve.Session
	if f.resume {
		if s, err = serve.Recover(opts); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recovered %s at epoch %d/%d\n", opts.Journal, s.Epoch(), s.Target())
	} else {
		file, err := loadScenario(f.configPath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Scenario = file
		if s, err = serve.NewSession(opts); err != nil {
			log.Fatal(err)
		}
	}

	// The pace closure is the only wall-clock in the serving stack: the
	// simulation tree below internal/serve stays deterministic and
	// sleep-free, and tests inject channel-metered pacers instead.
	var pace func()
	if f.speed > 0 {
		interval := time.Duration(float64(time.Second) / f.speed)
		pace = func() { time.Sleep(interval) }
	}

	d, err := serve.NewDaemon(s, f.socket, pace)
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(f.socket)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "signal: suspending resumably")
		d.Stop()
	}()

	mode := "manual (POST /v1/step)"
	if pace != nil {
		mode = fmt.Sprintf("%g epochs/s", f.speed)
	}
	fmt.Fprintf(os.Stderr, "vulcand serving on %s, epoch %d/%d, pacing %s\n",
		f.socket, s.Epoch(), s.Target(), mode)
	if err := d.Run(); err != nil {
		log.Fatal(err)
	}

	if !s.Finished() || s.Epoch() < s.Target() {
		fmt.Fprintf(os.Stderr, "suspended at epoch %d/%d; resume with -resume\n", s.Epoch(), s.Target())
		return
	}
	out := os.Stdout
	if f.reportOut != "" {
		rf, err := os.Create(f.reportOut)
		if err != nil {
			log.Fatal(err)
		}
		defer rf.Close()
		out = rf
	}
	if err := s.WriteReport(out, f.jsonOut); err != nil {
		log.Fatal(err)
	}
}

// loadScenario reads the scenario file a fresh session serves.
func loadScenario(path string) (scenario.File, error) {
	r, err := os.Open(path)
	if err != nil {
		return scenario.File{}, err
	}
	defer r.Close()
	return scenario.LoadFile(r)
}

// client performs one API call over the unix socket and prints the
// reply body; the exit code reflects the HTTP status.
func client(socket, postPath, getPath, data string) int {
	c := &http.Client{
		Transport: &http.Transport{
			DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
				var d net.Dialer
				return d.DialContext(ctx, "unix", socket)
			},
		},
	}
	var resp *http.Response
	var err error
	if getPath != "" {
		resp, err = c.Get("http://vulcand" + getPath)
	} else {
		resp, err = c.Post("http://vulcand"+postPath, "application/json", strings.NewReader(data))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer resp.Body.Close()
	io.Copy(os.Stdout, resp.Body)
	if resp.StatusCode >= 400 {
		return 1
	}
	return 0
}
