package runner

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/sim"
	"propane/internal/trace"
)

// The journal is the campaign's write-ahead record: one JSON object
// per line, appended as each injection run completes on the serial
// observer path. The first line is a header binding the journal to a
// config digest, so a resumed process refuses to mix records from a
// different campaign. A process killed mid-write leaves at most one
// torn trailing line, which loading tolerates; everything before it
// replays losslessly into the campaign aggregates (campaign.Replay),
// so an interrupted campaign converges to the uninterrupted result.

// journalVersion guards the record schema. Every campaign stamps it;
// loading also accepts version 3, which shares the schema (fixed-matrix
// campaigns stamped it before the adaptive round label made every
// journal version 4). Versions 1 and 2 predate the required outcome
// field and are refused.
const journalVersion = 4

// minJournalVersion is the oldest journal version loading accepts.
const minJournalVersion = 3

// Sentinel errors for journal and assembly integrity failures, so
// orchestration layers (and operators' scripts) can distinguish "the
// journals describe a different campaign" from ordinary I/O trouble.
var (
	// ErrDigestMismatch reports a journal or config snapshot recorded
	// against a different campaign configuration than the one being
	// run, resumed or assembled.
	ErrDigestMismatch = errors.New("config digest mismatch")
	// ErrConflictingRecords reports two journal records claiming the
	// same job with different content — two processes disagreed about
	// the simulation, and merging them would silently produce a bad
	// matrix.
	ErrConflictingRecords = errors.New("conflicting journal records")
	// ErrScheduleIncomplete reports an assembly over journals whose
	// records do not close the adaptive sampling schedule: the
	// confidence intervals the records imply still demand more
	// samples, so the campaign must be resumed, not assembled.
	ErrScheduleIncomplete = errors.New("adaptive schedule incomplete")
)

// RecordsEqual reports whether two journaled records describe the
// identical run outcome. Journal records are content-keyed by their
// job index; equality of the full content is what makes overlapping
// appends (a reassigned lease, a duplicated journal) idempotent
// rather than corrupting. Pruned is deliberately NOT compared: a
// pruned and an executed record of the same job carry bit-identical
// outcomes by construction, and overlapping journals from processes
// that settled a job differently (executed, pruned, served from a
// memo store) must stay idempotent. Round is
// excluded for the same reason: it labels when the adaptive scheduler
// dispatched the run, not what the run observed — a distributed
// worker executing a coordinator-carved unit journals round 0 for the
// exact outcome the coordinator's schedule labels with a round.
func RecordsEqual(a, b Record) bool {
	if a.Type != b.Type || a.Job != b.Job ||
		a.Module != b.Module || a.Signal != b.Signal ||
		a.AtMs != b.AtMs || a.Model != b.Model || a.Case != b.Case ||
		a.Fired != b.Fired || a.FiredAtMs != b.FiredAtMs ||
		a.SystemFailure != b.SystemFailure || a.FailureAtMs != b.FailureAtMs ||
		a.Outcome != b.Outcome || a.Detail != b.Detail || a.Attempts != b.Attempts {
		return false
	}
	if len(a.Diffs) != len(b.Diffs) {
		return false
	}
	for sig, d := range a.Diffs {
		if bd, ok := b.Diffs[sig]; !ok || bd != d {
			return false
		}
	}
	return true
}

// header is the journal's first line.
type header struct {
	Type         string `json:"type"` // "header"
	Version      int    `json:"version"`
	Instance     string `json:"instance"`
	Tier         string `json:"tier"`
	ConfigDigest string `json:"config_digest"`
}

// DiffRecord is the journaled form of one signal's Golden Run
// Comparison result; only deviating signals are stored.
type DiffRecord struct {
	FirstMs int64 `json:"first_ms"`
	LastMs  int64 `json:"last_ms"`
	Count   int   `json:"count"`
}

// Record is the journaled outcome of one injection run.
type Record struct {
	Type string `json:"type"` // "run"
	// Job is the run's position in the campaign's deterministic job
	// enumeration (plan-index major, case-index minor).
	Job int `json:"job"`
	// Module, Signal, AtMs and Model identify the injection; Model is
	// the inject.Spec rendering, so records round-trip.
	Module string `json:"module"`
	Signal string `json:"signal"`
	AtMs   int64  `json:"at_ms"`
	Model  string `json:"model"`
	// Case is the workload point index.
	Case int `json:"case"`
	// Fired and FiredAtMs report whether and when the trap fired.
	Fired     bool  `json:"fired"`
	FiredAtMs int64 `json:"fired_at_ms,omitempty"`
	// SystemFailure and FailureAtMs report system-output deviation.
	SystemFailure bool  `json:"system_failure,omitempty"`
	FailureAtMs   int64 `json:"failure_at_ms,omitempty"`
	// Diffs holds the deviating signals only.
	Diffs map[string]DiffRecord `json:"diffs,omitempty"`
	// Outcome classifies the run (ok/deviation/crash/hang/
	// quarantined). Required: RunRecord rejects any other value.
	Outcome string `json:"outcome,omitempty"`
	// Detail carries the crash's panic value or the quarantined job's
	// last worker error.
	Detail string `json:"detail,omitempty"`
	// Attempts is the consecutive-failure count behind a quarantine.
	Attempts int `json:"attempts,omitempty"`
	// Pruned labels how a pruned run's outcome was obtained (see the
	// campaign.Pruned* constants); empty for executed runs. Excluded
	// from RecordsEqual — see there.
	Pruned string `json:"pruned,omitempty"`
	// Round is the 1-based adaptive sampling round that scheduled the
	// run (campaign.RunRecord.Round); 0 for full-matrix campaigns and
	// for externally assigned job lists. Excluded from RecordsEqual —
	// see there.
	Round int `json:"round,omitempty"`
}

// newRecord converts a live campaign observation into its journaled
// form.
func newRecord(job int, rec campaign.RunRecord) (Record, error) {
	spec, err := inject.Spec(rec.Injection.Model)
	if err != nil {
		return Record{}, fmt.Errorf("runner: journaling %v: %w", rec.Injection, err)
	}
	r := Record{
		Type:          "run",
		Job:           job,
		Module:        rec.Injection.Module,
		Signal:        rec.Injection.Signal,
		AtMs:          int64(rec.Injection.At),
		Model:         spec,
		Case:          rec.CaseIndex,
		Fired:         rec.Fired,
		FiredAtMs:     int64(rec.FiredAt),
		SystemFailure: rec.SystemFailure,
		FailureAtMs:   int64(rec.FailureAt),
		Outcome:       string(rec.Outcome),
		Detail:        rec.Detail,
		Attempts:      rec.Attempts,
		Pruned:        rec.Pruned,
		Round:         rec.Round,
	}
	for sig, d := range rec.Diffs {
		if !d.Differs() {
			continue
		}
		if r.Diffs == nil {
			r.Diffs = make(map[string]DiffRecord)
		}
		r.Diffs[sig] = DiffRecord{FirstMs: int64(d.First), LastMs: int64(d.Last), Count: d.Count}
	}
	return r, nil
}

// Injection decodes the record's injection, validating what RunRecord
// needs: the outcome is one of the campaign.Outcome constants and the
// model spec parses. It costs no more than the spec parse; with the
// case index it identifies the record's job (campaign.JobIndex).
func (r Record) Injection() (inject.Injection, error) {
	if !campaign.Outcome(r.Outcome).Valid() {
		return inject.Injection{}, fmt.Errorf("runner: journal record job %d: unknown outcome %q", r.Job, r.Outcome)
	}
	model, err := inject.ParseSpec(r.Model)
	if err != nil {
		return inject.Injection{}, fmt.Errorf("runner: journal record job %d: %w", r.Job, err)
	}
	return inject.Injection{Module: r.Module, Signal: r.Signal, At: sim.Millis(r.AtMs), Model: model}, nil
}

// RunRecord converts a journaled record back into the campaign form
// consumed by Config.Replay, rejecting what Injection rejects.
func (r Record) RunRecord() (campaign.RunRecord, error) {
	inj, err := r.Injection()
	if err != nil {
		return campaign.RunRecord{}, err
	}
	rec := campaign.RunRecord{
		Injection:     inj,
		CaseIndex:     r.Case,
		Fired:         r.Fired,
		FiredAt:       sim.Millis(r.FiredAtMs),
		SystemFailure: r.SystemFailure,
		FailureAt:     sim.Millis(r.FailureAtMs),
		Outcome:       campaign.Outcome(r.Outcome),
		Detail:        r.Detail,
		Attempts:      r.Attempts,
		Pruned:        r.Pruned,
		Round:         r.Round,
	}
	if len(r.Diffs) > 0 {
		rec.Diffs = make(map[string]trace.Diff, len(r.Diffs))
		for sig, d := range r.Diffs {
			rec.Diffs[sig] = trace.Diff{
				Signal: sig,
				First:  sim.Millis(d.FirstMs),
				Last:   sim.Millis(d.LastMs),
				Count:  d.Count,
			}
		}
	}
	return rec, nil
}

// syncEvery bounds the data a crash can lose to this many records
// (the torn tail beyond the last sync is recovered line-by-line
// anyway on most filesystems; the sync is for power loss).
const syncEvery = 256

// journalWriter appends records to a journal file. buf and enc stage
// one write's worth of lines and are reused across writes; callers
// serialise (the runner's observer path, the coordinator's lock).
type journalWriter struct {
	f       *os.File
	pending int
	buf     bytes.Buffer
	enc     *json.Encoder
}

func newJournalWriter(f *os.File) *journalWriter {
	w := &journalWriter{f: f}
	w.enc = json.NewEncoder(&w.buf)
	return w
}

// openJournal opens (or creates) the journal for appending and writes
// the header when the file holds no valid content. A torn tail left
// by a killed process is truncated away before appending, so the
// journal never grows a merged corrupt line. An existing header must
// match the expected one — most importantly its config digest — so a
// resume against a drifted configuration fails loudly instead of
// corrupting the artifact set.
func openJournal(path string, hdr header) (*journalWriter, error) {
	existing, _, validLen, err := loadJournal(path)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	if st.Size() > validLen {
		// Cut the torn tail (or, when no valid header survived, the
		// whole file) so appends start on a clean line boundary.
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: truncating torn journal tail: %w", err)
		}
	}
	if validLen == 0 {
		line, err := json.Marshal(hdr)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: encoding journal header: %w", err)
		}
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: writing journal header: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("runner: syncing journal header: %w", err)
		}
		return newJournalWriter(f), nil
	}
	if existing.ConfigDigest != hdr.ConfigDigest {
		f.Close()
		return nil, fmt.Errorf("runner: journal %s belongs to config %s, not %s — refusing to mix campaigns: %w",
			path, existing.ConfigDigest, hdr.ConfigDigest, ErrDigestMismatch)
	}
	return newJournalWriter(f), nil
}

// AppendBatch journals records with a single Write call — one record
// per injection run on the runner's observer path, a whole uploaded
// unit on the coordinator's ingest path. The one-Write contract means
// a crash tears at most the final line of the batch.
func (w *journalWriter) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.buf.Reset()
	for i := range recs {
		if err := w.enc.Encode(&recs[i]); err != nil {
			return fmt.Errorf("runner: encoding journal record: %w", err)
		}
	}
	if _, err := w.f.Write(w.buf.Bytes()); err != nil {
		return fmt.Errorf("runner: appending journal records: %w", err)
	}
	w.pending += len(recs)
	if w.pending >= syncEvery {
		w.pending = 0
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("runner: syncing journal: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the journal.
func (w *journalWriter) Close() error {
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		return fmt.Errorf("runner: syncing journal: %w", err)
	}
	return w.f.Close()
}

// loadJournal reads a journal back. A torn final line — the
// signature of a killed process — is discarded; corruption anywhere
// else is an error. A missing file yields a zero header and no
// records. validLen is the byte length of the parseable prefix, so a
// resuming writer can truncate the torn tail before appending.
func loadJournal(path string) (hdr header, recs []Record, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return header{}, nil, 0, nil
	}
	if err != nil {
		return header{}, nil, 0, fmt.Errorf("runner: reading journal: %w", err)
	}
	pos, lineNo := 0, 0
	for pos < len(data) {
		var line []byte
		lineEnd := bytes.IndexByte(data[pos:], '\n')
		complete := lineEnd >= 0
		if complete {
			line = data[pos : pos+lineEnd]
			lineEnd = pos + lineEnd + 1
		} else {
			// No trailing newline: a record append was cut short.
			line = data[pos:]
			lineEnd = len(data)
		}
		lineNo++
		if len(bytes.TrimSpace(line)) == 0 {
			pos = lineEnd
			validLen = int64(lineEnd)
			continue
		}
		if lineNo == 1 {
			if jerr := json.Unmarshal(line, &hdr); jerr != nil || hdr.Type != "header" {
				if !complete {
					// Killed mid-header-write: an empty journal.
					return header{}, nil, 0, nil
				}
				return header{}, nil, 0, fmt.Errorf("runner: journal %s has no valid header", path)
			}
			if hdr.Version < minJournalVersion || hdr.Version > journalVersion {
				return header{}, nil, 0, fmt.Errorf("runner: journal %s is version %d, want %d..%d", path, hdr.Version, minJournalVersion, journalVersion)
			}
			pos = lineEnd
			validLen = int64(lineEnd)
			continue
		}
		var rec Record
		if jerr := json.Unmarshal(line, &rec); jerr != nil || rec.Type != "run" {
			if !complete {
				break // torn tail from a kill — resume re-runs it
			}
			return header{}, nil, 0, fmt.Errorf("runner: journal %s corrupt at line %d", path, lineNo)
		}
		recs = append(recs, rec)
		pos = lineEnd
		validLen = int64(lineEnd)
	}
	return hdr, recs, validLen, nil
}
