package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"

	"vulcan/internal/scenario"
)

// Daemon wraps a live Session in a local control plane: a unix-socket
// HTTP/JSON API accepting admissions, departures, intensity changes and
// lifecycle commands while the epoch loop advances. One mutex
// serializes every simulation touch — handlers only enqueue or read
// between epochs, so the simulation itself stays strictly serial and
// the journal stays a total order.
//
// Pacing is injected: the daemon never sleeps itself (the simulation
// tree is wall-clock-free); cmd/vulcand passes a pace closure for
// real-time or scaled-time stepping, or nil for manual mode where
// POST /v1/step drives epochs.
type Daemon struct {
	mu sync.Mutex
	s  *Session

	pace func() // nil = manual stepping via /v1/step

	srv *http.Server
	ln  net.Listener

	stopOnce sync.Once
	stopCh   chan struct{}
	finOnce  sync.Once
	finCh    chan struct{}

	fatal error // first fatal Step error, under mu
}

// NewDaemon binds the control API to a unix socket. pace is called
// before every epoch in auto mode; pass nil for manual stepping.
func NewDaemon(s *Session, socket string, pace func()) (*Daemon, error) {
	ln, err := net.Listen("unix", socket)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		s:      s,
		pace:   pace,
		ln:     ln,
		stopCh: make(chan struct{}),
		finCh:  make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/admit", d.handleCmd("admit"))
	mux.HandleFunc("/v1/stop", d.handleCmd("stop"))
	mux.HandleFunc("/v1/intensity", d.handleCmd("intensity"))
	mux.HandleFunc("/v1/step", d.handleStep)
	mux.HandleFunc("/v1/status", d.handleStatus)
	mux.HandleFunc("/v1/checkpoint", d.handleCheckpoint)
	mux.HandleFunc("/v1/shutdown", d.handleShutdown)
	d.srv = &http.Server{Handler: limitBodies(mux)}
	return d, nil
}

// maxBodyBytes caps every request body the control API accepts; the
// largest legitimate body, an inline app spec, is a few hundred bytes.
const maxBodyBytes = 1 << 20

// limitBodies answers a body declared larger than maxBodyBytes with 413
// and caps every other body, so no handler can be made to buffer
// unbounded input.
func limitBodies(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.ContentLength > maxBodyBytes {
			writeErr(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body of %d bytes exceeds %d", r.ContentLength, maxBodyBytes))
			return
		}
		r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
		h.ServeHTTP(w, r)
	})
}

// decodeBody decodes the request's JSON body into v and returns the
// status to answer a failure with: 413 when the body overruns the cap,
// 400 when it is not JSON of v's shape. An empty body yields io.EOF.
func decodeBody(r *http.Request, v any) (int, error) {
	err := json.NewDecoder(r.Body).Decode(v)
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		return http.StatusRequestEntityTooLarge, err
	}
	return http.StatusBadRequest, err
}

// Run serves the control API and drives the epoch loop until the run
// finishes, a fatal error hits, or /v1/shutdown asks to stop. A
// shutdown before the target suspends the session resumably (journal
// kept, no trailer); a completed run seals it. Returns the fatal error,
// if any.
func (d *Daemon) Run() error {
	go d.srv.Serve(d.ln)

	if d.pace == nil {
		// Manual mode: epochs arrive over /v1/step.
		select {
		case <-d.stopCh:
		case <-d.finCh:
		}
	} else {
		d.autoLoop()
	}

	d.mu.Lock()
	fatal := d.fatal
	finished := d.s.Finished()
	var suspendErr error
	if !finished {
		suspendErr = d.s.Suspend()
	}
	d.mu.Unlock()

	// Graceful server teardown: in-flight responses (the shutdown
	// handler's own reply included) complete before the socket closes.
	d.srv.Shutdown(context.Background())
	if fatal != nil {
		return fatal
	}
	return suspendErr
}

// autoLoop paces and steps until done.
func (d *Daemon) autoLoop() {
	for {
		select {
		case <-d.stopCh:
			return
		default:
		}
		d.pace()
		d.mu.Lock()
		if d.s.Finished() {
			d.mu.Unlock()
			return
		}
		err := d.s.Step()
		finished := d.s.Finished()
		if err != nil {
			d.fatal = err
		}
		d.mu.Unlock()
		if err != nil || finished {
			return
		}
	}
}

// Stop asks the run loop to exit (same as POST /v1/shutdown).
func (d *Daemon) Stop() { d.stopOnce.Do(func() { close(d.stopCh) }) }

// cmdRequest is the wire shape of the three command endpoints.
type cmdRequest struct {
	App    *scenario.App `json:"app,omitempty"`
	Name   string        `json:"name,omitempty"`
	Milli  int           `json:"milli,omitempty"`
	Depart int           `json:"depart,omitempty"`
}

// AppStatus is one app's line in a status reply.
type AppStatus struct {
	Name           string  `json:"name"`
	Class          string  `json:"class"`
	Started        bool    `json:"started"`
	Stopped        bool    `json:"stopped"`
	FastPages      int     `json:"fast_pages"`
	FTHR           float64 `json:"fthr"`
	IntensityMilli int     `json:"intensity_milli"`
}

// StatusReply is the /v1/status payload.
type StatusReply struct {
	Epoch    int         `json:"epoch"`
	Target   int         `json:"target"`
	Finished bool        `json:"finished"`
	Pending  int         `json:"pending"`
	Apps     []AppStatus `json:"apps"`
	Errs     []string    `json:"errs,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleCmd enqueues one command for the next epoch boundary.
func (d *Daemon) handleCmd(op string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
			return
		}
		var req cmdRequest
		if code, err := decodeBody(r, &req); err != nil {
			writeErr(w, code, err)
			return
		}
		c := Cmd{Op: op, App: req.App, Name: req.Name, Milli: req.Milli, Depart: req.Depart}
		d.mu.Lock()
		err := d.s.Enqueue(c)
		epoch := d.s.Epoch()
		d.mu.Unlock()
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]int{"queued_for_epoch": epoch})
	}
}

// handleStep advances epochs synchronously — manual mode only. An empty
// body steps one epoch; a body that does not decode steps none.
func (d *Daemon) handleStep(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	if d.pace != nil {
		writeErr(w, http.StatusConflict, fmt.Errorf("auto-paced daemon; /v1/step is for -speed 0 manual mode"))
		return
	}
	var req struct {
		Epochs int `json:"epochs"`
	}
	if code, err := decodeBody(r, &req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, code, err)
		return
	}
	if req.Epochs <= 0 {
		req.Epochs = 1
	}
	d.mu.Lock()
	var err error
	for i := 0; i < req.Epochs && !d.s.Finished() && err == nil; i++ {
		err = d.s.Step()
	}
	if err != nil {
		d.fatal = err
	}
	reply := d.statusLocked()
	finished := d.s.Finished()
	d.mu.Unlock()
	if finished {
		d.finOnce.Do(func() { close(d.finCh) })
	}
	if err != nil {
		d.Stop()
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, reply)
}

// statusLocked builds a status reply; the caller holds mu.
func (d *Daemon) statusLocked() StatusReply {
	reply := StatusReply{
		Epoch:    d.s.Epoch(),
		Target:   d.s.Target(),
		Finished: d.s.Finished(),
		Pending:  d.s.Pending(),
		Errs:     d.s.Errs(),
	}
	for _, a := range d.s.System().Apps() {
		as := AppStatus{
			Name:           a.Name(),
			Class:          a.Class().String(),
			Started:        a.Started(),
			Stopped:        a.Stopped(),
			IntensityMilli: a.IntensityMilli(),
		}
		// Runtime metrics exist once the app has been admitted; an app
		// still waiting on its StartAt has none.
		if a.Started() || a.Stopped() {
			as.FastPages = a.FastPages()
			as.FTHR = a.FTHR()
		}
		reply.Apps = append(reply.Apps, as)
	}
	return reply
}

func (d *Daemon) handleStatus(w http.ResponseWriter, r *http.Request) {
	d.mu.Lock()
	reply := d.statusLocked()
	d.mu.Unlock()
	writeJSON(w, http.StatusOK, reply)
}

func (d *Daemon) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	d.mu.Lock()
	var err error
	if d.s.Finished() {
		err = fmt.Errorf("session finished")
	} else {
		err = d.s.Checkpoint()
	}
	epoch := d.s.Epoch()
	d.mu.Unlock()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"checkpoint_epoch": epoch})
}

func (d *Daemon) handleShutdown(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, fmt.Errorf("POST only"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"stopping": true})
	d.Stop()
}
