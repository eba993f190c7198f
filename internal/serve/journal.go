// Package serve is vulcand's engine: a long-running serving session
// that owns a dynamic system.System, advances it epoch by epoch, admits
// and departs workloads at epoch boundaries from a control API or a
// deterministic arrival plan, streams telemetry incrementally, and
// journals every command so the whole run can be replayed — or resumed
// after a crash — byte for byte (DESIGN.md §16).
//
// The package sits inside the simulation tree for the determinism
// contract (no wall clock, no environment, no map-order iteration) but
// carries a scoped labonly exemption: the HTTP control plane needs
// goroutines and a mutex. All simulation state is only ever touched
// between epoch boundaries under that one mutex, so the sim tree itself
// stays serial — which the journal-replay parity tests prove.
package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"vulcan/internal/scenario"
)

// journalVersion is the journal header's wire version. Version 2 drops
// the header's max_backlog knob with the bounded async backlog, so a
// version-1 journal that recorded a bound never replays under different
// arithmetic.
const journalVersion = 2

// Cmd is one daemon command, as executed and journaled. The journal is
// the deterministic admission schedule: replaying it through the batch
// path reproduces the daemon's artifacts byte for byte.
type Cmd struct {
	// Op is "admit", "stop" or "intensity".
	Op string `json:"op"`
	// App is the admitted spec in scenario shape (admit only). Presets
	// and custom generators both survive the JSON round trip.
	App *scenario.App `json:"app,omitempty"`
	// Name is the stop/intensity target — or, on admit, the instance
	// name overriding the spec's own (arrival-plan instances).
	Name string `json:"name,omitempty"`
	// Milli is the intensity override in thousandths (intensity only).
	Milli int `json:"milli,omitempty"`
	// Src records who issued the command: "api" or "arrival".
	Src string `json:"src,omitempty"`
	// Depart, on admit, schedules the instance's stop at that epoch
	// boundary (0 = runs to the end). Derived departures are not
	// journaled as stop commands — the admit carries them.
	Depart int `json:"depart,omitempty"`
}

// Header is the journal's first line: everything a replay needs to
// rebuild the session's substrate before applying command batches.
type Header struct {
	V        int           `json:"v"`
	Scenario scenario.File `json:"scenario"`
	// Rescore mirrors the session knob that changes simulation
	// arithmetic; a replay must run with the same value.
	Rescore bool `json:"rescore,omitempty"`
}

// Batch is one epoch boundary's executed commands. Boundaries with no
// commands write no record.
type Batch struct {
	Epoch int   `json:"epoch"`
	Cmds  []Cmd `json:"cmds"`
}

// trailer marks a completed run.
type trailer struct {
	Finish int `json:"finish"`
}

// record is the union shape a reader discriminates lines with.
type record struct {
	V        *int           `json:"v,omitempty"`
	Scenario *scenario.File `json:"scenario,omitempty"`
	Epoch    *int           `json:"epoch,omitempty"`
	Cmds     []Cmd          `json:"cmds,omitempty"`
	Finish   *int           `json:"finish,omitempty"`

	Rescore bool `json:"rescore,omitempty"`
}

// Journal is the append-side handle. Every record is one JSON line,
// written with a single Write call and fsynced before Append returns,
// so a crash can tear at most the trailing line — which recovery
// detects and truncates.
type Journal struct {
	f *os.File
}

// CreateJournal writes a fresh journal at path, starting with the
// header line.
func CreateJournal(path string, hdr Header) (*Journal, error) {
	hdr.V = journalVersion
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f}
	if err := j.appendLine(hdr); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// openJournalAppend reopens an existing journal for appending after
// recovery truncated it to cleanSize bytes.
func openJournalAppend(path string, cleanSize int64) (*Journal, error) {
	if err := os.Truncate(path, cleanSize); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f}, nil
}

// Append journals one epoch batch.
func (j *Journal) Append(b Batch) error { return j.appendLine(b) }

// Finish journals the completion trailer.
func (j *Journal) Finish(epoch int) error { return j.appendLine(trailer{Finish: epoch}) }

// Close closes the journal file (a finished run keeps its trailer; an
// unfinished one is resumable).
func (j *Journal) Close() error { return j.f.Close() }

// appendLine marshals v, writes it as one line and fsyncs.
func (j *Journal) appendLine(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return err
	}
	return j.f.Sync()
}

// JournalData is a parsed journal.
type JournalData struct {
	Header   Header
	Batches  []Batch
	Finished bool
	// FinishEpoch is the trailer's epoch when Finished.
	FinishEpoch int
	// CleanSize is the byte offset just past the last complete record;
	// recovery truncates the file here before appending.
	CleanSize int64
}

// LastEpoch returns the highest journaled batch epoch, or -1 when no
// batches were written.
func (d *JournalData) LastEpoch() int {
	if len(d.Batches) == 0 {
		return -1
	}
	return d.Batches[len(d.Batches)-1].Epoch
}

// ReadJournal parses a journal file. The trailing line may be torn (a
// crash mid-append): it is dropped and excluded from CleanSize. A
// malformed line anywhere else is corruption and errors out.
func ReadJournal(path string) (*JournalData, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseJournal(path, raw)
}

// parseJournal decodes a journal's raw bytes; path only names it in
// errors.
func parseJournal(path string, raw []byte) (*JournalData, error) {
	d := &JournalData{}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var off int64
	lineNo := 0
	lastEpoch := -1
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line)) + 1 // the terminating newline
		torn := off+lineLen > int64(len(raw))
		var rec record
		if err := json.Unmarshal(line, &rec); err != nil || !wellFormed(lineNo, rec) {
			if torn || off+lineLen == int64(len(raw)) {
				// Tail line: torn write. Anything after it would also be
				// torn debris; stop here.
				break
			}
			return nil, fmt.Errorf("serve: journal %s line %d is corrupt", path, lineNo+1)
		}
		if torn {
			// Parsed but unterminated: the newline never hit the disk, so
			// a concurrent append could still be in flight. Treat as torn.
			break
		}
		switch {
		case lineNo == 0:
			if *rec.V != journalVersion {
				return nil, fmt.Errorf("serve: journal %s version %d (want %d)", path, *rec.V, journalVersion)
			}
			d.Header = Header{V: *rec.V, Scenario: *rec.Scenario, Rescore: rec.Rescore}
		case rec.Epoch != nil:
			if d.Finished {
				return nil, fmt.Errorf("serve: journal %s has a batch after the finish trailer", path)
			}
			if *rec.Epoch <= lastEpoch {
				return nil, fmt.Errorf("serve: journal %s batch epochs out of order at line %d", path, lineNo+1)
			}
			lastEpoch = *rec.Epoch
			d.Batches = append(d.Batches, Batch{Epoch: *rec.Epoch, Cmds: rec.Cmds})
		default:
			if d.Finished {
				return nil, fmt.Errorf("serve: journal %s has two finish trailers", path)
			}
			d.Finished = true
			d.FinishEpoch = *rec.Finish
		}
		off += lineLen
		lineNo++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("serve: journal %s: %w", path, err)
	}
	if lineNo == 0 {
		return nil, fmt.Errorf("serve: journal %s has no intact header", path)
	}
	d.CleanSize = off
	return d, nil
}

// wellFormed checks that a parsed record is the right shape for its
// position: header first, then batches and at most one trailer.
func wellFormed(lineNo int, rec record) bool {
	if lineNo == 0 {
		return rec.V != nil && rec.Scenario != nil
	}
	if rec.V != nil || rec.Scenario != nil {
		return false
	}
	if rec.Epoch != nil {
		return rec.Finish == nil && *rec.Epoch >= 0
	}
	return rec.Finish != nil && *rec.Finish >= 0
}
