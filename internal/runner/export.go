package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// This file is the runner's contract with external orchestrators —
// today the distributed coordinator (internal/distrib), which plans
// work units from the same deterministic enumeration Run executes and
// appends worker-streamed records to the same journal files a resumed
// run or coordinator merges. Everything here is derived from the exact code paths Run
// itself uses, so an orchestrator can never disagree with a local run
// about job indices, config digests or journal layout.

// PlanInfo describes a campaign's deterministic execution space: the
// config digest that journals bind to and the job-index arithmetic
// that work units and resume rely on. Two processes whose
// Prepared.Info results agree agree on everything journal-shaped.
type PlanInfo struct {
	// Name and Tier label the campaign as Options would.
	Name string
	Tier Tier
	// Digest is the config snapshot digest (includes the golden-run
	// trace digests, so it also pins the simulated target).
	Digest string
	// PlanSize is the injection-plan length; Cases the workload-grid
	// size; TotalRuns their product — the job space [0, TotalRuns)
	// enumerated plan-index major, case-index minor.
	PlanSize  int
	Cases     int
	TotalRuns int
	// Adaptive and CIEpsilon report the resolved adaptive sampling
	// mode pinned in the digest (false/0 for full-matrix campaigns).
	// When Adaptive is set, TotalRuns bounds the job space but the
	// executed subset is discovered at run time by the sequential
	// scheduler.
	Adaptive  bool
	CIEpsilon float64
}

// RecordSetDigest computes a canonical SHA-256 over a set of records:
// sorted by job index, each serialized as one JSON line with the
// Pruned and Round labels left out — exactly the fields RecordsEqual
// compares. Two record sets that would merge without conflict produce
// the same digest. It is a reference digest for tests and benchmarks,
// which compare a campaign's journal against a single-node run's; no
// protocol carries it. The input slice is not modified.
func RecordSetDigest(recs []Record) string {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return recs[order[a]].Job < recs[order[b]].Job })
	h := sha256.New()
	for _, i := range order {
		line, err := json.Marshal(newDigestRecord(&recs[i]))
		if err != nil {
			// A digestRecord is plain data; Marshal cannot fail on one.
			// Keep the signature error-free and make any future
			// regression loud instead of silent.
			panic(fmt.Sprintf("runner: encoding record for digest: %v", err))
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestRecord is the JSON line RecordSetDigest hashes for a Record.
// Its fields, names and order are fixed: the committed reference
// digests (perfbench's among them) hash these bytes.
type digestRecord struct {
	Type          string                `json:"type"`
	Job           int                   `json:"job"`
	Module        string                `json:"module"`
	Signal        string                `json:"signal"`
	AtMs          int64                 `json:"at_ms"`
	Model         string                `json:"model"`
	Case          int                   `json:"case"`
	Fired         bool                  `json:"fired"`
	FiredAtMs     int64                 `json:"fired_at_ms,omitempty"`
	SystemFailure bool                  `json:"system_failure,omitempty"`
	FailureAtMs   int64                 `json:"failure_at_ms,omitempty"`
	Diffs         map[string]digestDiff `json:"diffs,omitempty"`
	Outcome       string                `json:"outcome,omitempty"`
	Detail        string                `json:"detail,omitempty"`
	Attempts      int                   `json:"attempts,omitempty"`
}

type digestDiff struct {
	FirstMs int64 `json:"first_ms"`
	LastMs  int64 `json:"last_ms"`
	Count   int   `json:"count"`
}

func newDigestRecord(r *Record) digestRecord {
	d := digestRecord{
		Type: r.Type, Job: r.Job, Module: r.Module, Signal: r.Signal, AtMs: r.AtMs, Model: r.Model, Case: r.Case,
		Fired: r.Fired, FiredAtMs: r.FiredAtMs, SystemFailure: r.SystemFailure, FailureAtMs: r.FailureAtMs,
		Outcome: r.Outcome, Detail: r.Detail, Attempts: r.Attempts,
	}
	if len(r.Diffs) > 0 {
		d.Diffs = make(map[string]digestDiff, len(r.Diffs))
		for _, diff := range r.Diffs {
			d.Diffs[diff.Signal] = digestDiff{FirstMs: int64(diff.First), LastMs: int64(diff.Last), Count: diff.Count}
		}
	}
	return d
}

// JournalPath returns the journal path Run uses for a campaign under
// dir.
func JournalPath(dir string) string { return layout{dir: dir}.journalPath() }

// ShardJournalPath returns JournalPath(dir); a campaign keeps a single
// journal, so the shard arguments are ignored.
//
// Deprecated: use JournalPath.
func ShardJournalPath(dir string, shard, shards int) string { return JournalPath(dir) }

// ReadJournal loads a journal, tolerating the torn trailing
// frame a killed process leaves behind. A missing file yields a zero
// header and no records.
func ReadJournal(path string) (JournalHeader, []Record, error) {
	hdr, recs, _, err := loadJournal(path)
	return hdr, recs, err
}

// OpenJournal opens (or reopens) the campaign journal under dir for an
// external orchestrator — the distributed coordinator persisting
// records its workers upload — instead of Run itself. It writes the
// header when the file is empty and verifies the config digest when
// it is not (ErrDigestMismatch otherwise), so the resulting file
// assembles exactly like a locally written one. hdr's Type and
// Version are ignored: the header stamps the current journal version.
func OpenJournal(dir string, hdr JournalHeader) (*Journal, error) {
	return openJournal(JournalPath(dir), hdr)
}
