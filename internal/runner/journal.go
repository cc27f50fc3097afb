package runner

import (
	"errors"
	"fmt"
	"os"
	"slices"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/sim"
	"propane/internal/trace"
	"propane/internal/wal"
)

// The journal is the campaign's write-ahead record: a JSON header
// line binding the journal to a config digest, so a resumed process
// refuses to mix records from a different campaign, followed by
// binary record frames appended as injection runs complete on the
// serial observer path — a log in the wal format, each frame holding
// a batch of records (codec.go). A process killed
// mid-write leaves at most one torn trailing frame, which loading
// tolerates; everything before it replays losslessly into the
// campaign aggregates (campaign.Replay), so an interrupted campaign
// converges to the uninterrupted result.

// journalVersion guards the journal format; loading accepts only this
// version. Versions 3 and 4 stored JSON-lines records and are refused
// with an error saying the record encoding changed; 1 and 2 predate
// the required outcome field.
const journalVersion = 5

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
	return slices.Equal(a.Diffs, b.Diffs)
}

// JournalHeader is a journal's first line, binding it to one
// campaign's config digest. openJournal stamps Type and Version.
type JournalHeader struct {
	Type         string `json:"type"` // "header"
	Version      int    `json:"version"`
	Instance     string `json:"instance"`
	Tier         string `json:"tier"`
	ConfigDigest string `json:"config_digest"`
}

// Record is the journaled outcome of one injection run: what the
// record codec frames in journal.bin and on /v1/records, and what
// RecordSetDigest hashes.
type Record struct {
	Type string // "run"
	// Job is the run's position in the campaign's deterministic job
	// enumeration (plan-index major, case-index minor).
	Job int
	// Module, Signal, AtMs and Model identify the injection; Model is
	// the inject.Spec rendering, so records round-trip.
	Module string
	Signal string
	AtMs   int64
	Model  string
	// Case is the workload point index.
	Case int
	// Fired and FiredAtMs report whether and when the trap fired.
	Fired     bool
	FiredAtMs int64
	// SystemFailure and FailureAtMs report system-output deviation.
	SystemFailure bool
	FailureAtMs   int64
	// Diffs holds the deviating signals only, in strictly ascending
	// name order. A live run's record shares the slice its
	// campaign.RunRecord carries (newRecord), and RunRecord hands it
	// back; no one modifies it.
	Diffs trace.Diffs
	// Outcome classifies the run (ok/deviation/crash/hang/
	// quarantined). Required: RunRecord rejects any other value.
	Outcome string
	// Detail carries the crash's panic value or the quarantined job's
	// last worker error.
	Detail string
	// Attempts is the consecutive-failure count behind a quarantine.
	Attempts int
	// Pruned labels how a pruned run's outcome was obtained (see the
	// campaign.Pruned* constants); empty for executed runs. Excluded
	// from RecordsEqual — see there.
	Pruned string
	// Round is the 1-based adaptive sampling round that scheduled the
	// run (campaign.RunRecord.Round); 0 for full-matrix campaigns and
	// for externally assigned job lists. Excluded from RecordsEqual —
	// see there.
	Round int
}

// newRecord converts a live campaign observation into its journaled
// form; spec is the inject.Spec rendering of its model. The record
// shares rec.Diffs unless it holds a non-deviating entry (a full
// result), which the journaled copy leaves out.
func newRecord(job int, spec string, rec campaign.RunRecord) Record {
	return Record{
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
		Diffs:         rec.Diffs.Deviating(),
		Outcome:       string(rec.Outcome),
		Detail:        rec.Detail,
		Attempts:      rec.Attempts,
		Pruned:        rec.Pruned,
		Round:         rec.Round,
	}
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
// consumed by Config.Replay, rejecting what Injection rejects. The
// campaign record shares r.Diffs.
func (r Record) RunRecord() (campaign.RunRecord, error) {
	inj, err := r.Injection()
	if err != nil {
		return campaign.RunRecord{}, err
	}
	return campaign.RunRecord{
		Injection:     inj,
		CaseIndex:     r.Case,
		Fired:         r.Fired,
		FiredAt:       sim.Millis(r.FiredAtMs),
		Diffs:         r.Diffs,
		SystemFailure: r.SystemFailure,
		FailureAt:     sim.Millis(r.FailureAtMs),
		Outcome:       campaign.Outcome(r.Outcome),
		Detail:        r.Detail,
		Attempts:      r.Attempts,
		Pruned:        r.Pruned,
		Round:         r.Round,
	}, nil
}

// syncEvery bounds the data a crash can lose to this many records
// (the torn tail beyond the last sync is recovered frame-by-frame
// anyway on most filesystems; the sync is for power loss).
const syncEvery = 256

// frameHeaderLen is a frame's fixed prefix (wal.FrameHeaderLen). The
// largest frame, one /v1/records upload, is capped far below 4 GiB.
const frameHeaderLen = wal.FrameHeaderLen

// appendFrame appends one journal frame holding recs to dst, encoding
// the payload in place.
func appendFrame(dst []byte, enc *RecordEncoder, recs []Record) []byte {
	start := len(dst)
	dst = enc.AppendPayload(append(dst, make([]byte, frameHeaderLen)...), recs)
	return wal.SealFrame(dst, start)
}

// Journal appends record frames to a journal file. buf and enc stage
// one frame and are reused across writes; callers serialise (the
// runner's observer path, the coordinator's lock).
type Journal struct {
	log *wal.Log
	buf []byte
	enc RecordEncoder
}

// openJournal opens (or creates) the journal for appending: a torn
// tail is cut, a file without a header gets hdr's (wal.Open). An
// existing header must carry hdr's config digest, so a resume against
// a drifted configuration fails loudly instead of corrupting results.
//
// The existing frames are walked, each checksummed, but no record is
// decoded: opening costs the same few allocations whatever the
// journal holds.
func openJournal(path string, hdr JournalHeader) (*Journal, error) {
	var existing JournalHeader
	var validLen int64
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
	case err != nil:
		return nil, fmt.Errorf("runner: reading journal: %w", err)
	default:
		if existing, validLen, err = walkJournal(path, data, func([]byte) error { return nil }); err != nil {
			return nil, err
		}
	}
	if validLen > 0 && existing.ConfigDigest != hdr.ConfigDigest {
		return nil, fmt.Errorf("runner: journal %s belongs to config %s, not %s — refusing to mix campaigns: %w",
			path, existing.ConfigDigest, hdr.ConfigDigest, ErrDigestMismatch)
	}
	hdr.Type, hdr.Version = "header", journalVersion
	log, err := wal.Open(path, hdr, validLen, syncEvery)
	if err == nil && validLen == 0 {
		// The header binds every later frame to its digest.
		if err = log.Sync(); err != nil {
			log.Close()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("runner: opening journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// AppendBatch journals records as one frame with a single Write call —
// one record per injection run on the runner's observer path, a whole
// uploaded unit on the coordinator's ingest path. The one-Write
// contract means a crash tears at most the batch's frame.
func (w *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	w.buf = appendFrame(w.buf[:0], &w.enc, recs)
	if err := w.log.Write(w.buf, len(recs)); err != nil {
		return fmt.Errorf("runner: appending journal records: %w", err)
	}
	return nil
}

// Close syncs and closes the journal.
func (w *Journal) Close() error { return w.log.Close() }

// loadJournal reads a journal back (parseJournal). A missing file
// yields a zero header and no records.
func loadJournal(path string) (hdr JournalHeader, recs []Record, validLen int64, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return JournalHeader{}, nil, 0, nil
	}
	if err != nil {
		return JournalHeader{}, nil, 0, fmt.Errorf("runner: reading journal: %w", err)
	}
	return parseJournal(path, data)
}

// parseJournal decodes a journal's bytes (walkJournal) into its
// header and records.
func parseJournal(path string, data []byte) (hdr JournalHeader, recs []Record, validLen int64, err error) {
	var dec RecordDecoder
	hdr, validLen, err = walkJournal(path, data, func(payload []byte) (err error) {
		recs, err = dec.Decode(recs, payload)
		return err
	})
	if err != nil {
		return JournalHeader{}, nil, 0, err
	}
	return hdr, recs, validLen, nil
}

// walkJournal checks a journal's header and hands each whole frame's
// payload to visit, by the log format's torn-tail rule (wal.Walk).
// Versions 3 and 4 are refused saying why.
func walkJournal(path string, data []byte, visit func(payload []byte) error) (hdr JournalHeader, validLen int64, err error) {
	validLen, err = wal.Walk(path, data, wal.Header{Version: journalVersion}, &hdr, visit) // kind "": the journal predates kinds
	switch {
	case errors.Is(err, wal.ErrVersion) && (hdr.Version == 3 || hdr.Version == 4):
		return JournalHeader{}, 0, fmt.Errorf("runner: journal %s is version %d, which stored JSON-lines records; "+
			"the record encoding changed to binary frames in version %d — rerun the campaign in a fresh directory",
			path, hdr.Version, journalVersion)
	case err != nil:
		return JournalHeader{}, 0, fmt.Errorf("runner: %w", err)
	}
	return hdr, validLen, nil
}

// CheckJournal vets data, the bytes of the journal at path, as a
// complete copy of a finished campaign's record journal without
// decoding a record: the header names digest (ErrDigestMismatch
// otherwise), every frame passes its length and checksum checks, and
// no torn tail follows the last frame. It returns the number of
// records the frames hold; a journal truncated on a frame boundary
// passes every other check, so the caller compares the count with the
// runs it expects.
func CheckJournal(path string, data []byte, digest string) (records int, err error) {
	hdr, validLen, err := walkJournal(path, data, func(payload []byte) error {
		r := payloadReader{data: payload}
		for i, n := 0, r.count("string table", 1); i < n && r.err == nil; i++ {
			r.next(r.count("string", 1))
		}
		records += r.count("record", minRecordBytes)
		return r.err
	})
	switch {
	case err != nil:
		return 0, err
	case hdr.ConfigDigest != digest:
		return 0, fmt.Errorf("runner: journal %s belongs to config %q, not %s: %w", path, hdr.ConfigDigest, digest, ErrDigestMismatch)
	case validLen != int64(len(data)):
		return 0, fmt.Errorf("runner: journal %s has a torn tail of %d bytes", path, int64(len(data))-validLen)
	}
	return records, nil
}
