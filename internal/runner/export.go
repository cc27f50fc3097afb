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
// appends worker-streamed records to the same journal files Assemble
// merges. Everything here is derived from the exact code paths Run
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
// sorted by job index, serialized with the Pruned and Round labels
// cleared — exactly the fields RecordsEqual compares. Two processes holding
// record sets that would merge without conflict produce the same
// digest, so a distributed worker can prove its locally journaled
// unit matches what the coordinator would have received without
// shipping a single record (digest-only completion). The input slice
// is not modified.
func RecordSetDigest(recs []Record) string {
	order := make([]int, len(recs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return recs[order[a]].Job < recs[order[b]].Job })
	h := sha256.New()
	for _, i := range order {
		rec := recs[i]
		rec.Pruned = "" // excluded from equality, so excluded here
		rec.Round = 0   // likewise: a schedule label, not an outcome
		line, err := json.Marshal(rec)
		if err != nil {
			// A Record is plain data; Marshal cannot fail on one. Keep
			// the signature error-free and make any future regression
			// loud instead of silent.
			panic(fmt.Sprintf("runner: encoding record for digest: %v", err))
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JournalHeader is the exported view of a journal file's header line.
type JournalHeader struct {
	Version      int
	Instance     string
	Tier         string
	ConfigDigest string
}

// JournalPath returns the journal path Run uses for a campaign under
// dir — the file Assemble merges.
func JournalPath(dir string) string { return layout{dir: dir}.journalPath() }

// ShardJournalPath returns JournalPath(dir); a campaign keeps a single
// journal, so the shard arguments are ignored.
//
// Deprecated: use JournalPath.
func ShardJournalPath(dir string, shard, shards int) string { return JournalPath(dir) }

// ReadJournal loads a journal, tolerating the torn trailing
// line a killed process leaves behind. A missing file yields a zero
// header and no records.
func ReadJournal(path string) (JournalHeader, []Record, error) {
	hdr, recs, _, err := loadJournal(path)
	if err != nil {
		return JournalHeader{}, nil, err
	}
	return JournalHeader{
		Version:      hdr.Version,
		Instance:     hdr.Instance,
		Tier:         hdr.Tier,
		ConfigDigest: hdr.ConfigDigest,
	}, recs, nil
}

// Journal is an append-only campaign journal opened by an
// external orchestrator (the distributed coordinator persisting
// records its workers stream back) instead of by Run itself. It shares
// Run's journal format, torn-tail healing and digest binding, so the
// resulting file assembles exactly like a locally written one.
type Journal struct {
	w    *journalWriter
	path string
}

// OpenJournal opens (or reopens) the campaign journal under dir,
// writing the header when the file is empty and verifying the
// config digest when it is not (ErrDigestMismatch otherwise). The
// header always stamps the current journal version; hdr.Version is
// ignored.
func OpenJournal(dir string, hdr JournalHeader) (*Journal, error) {
	path := JournalPath(dir)
	w, err := openJournal(path, header{
		Type:         "header",
		Version:      journalVersion,
		Instance:     hdr.Instance,
		Tier:         hdr.Tier,
		ConfigDigest: hdr.ConfigDigest,
	})
	if err != nil {
		return nil, err
	}
	return &Journal{w: w, path: path}, nil
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// AppendBatch journals a whole batch of records with one write —
// the coordinator's bulk-ingest path for worker-uploaded units.
func (j *Journal) AppendBatch(recs []Record) error { return j.w.AppendBatch(recs) }

// Sync flushes appended records to stable storage.
func (j *Journal) Sync() error {
	if err := j.w.f.Sync(); err != nil {
		return fmt.Errorf("runner: syncing journal: %w", err)
	}
	j.w.pending = 0
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error { return j.w.Close() }
