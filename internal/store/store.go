// Package store is the content-addressed persistent result store
// behind the multi-tenant campaign service (internal/service). It
// holds two kinds of state under one directory:
//
//   - Memo entries: executed injection-run results keyed by the
//     campaign engine's memo key (state digest, port, firing tick,
//     corrupted value, step budget), scoped by campaign config digest.
//     They implement runner.MemoStore, so identical experiments are
//     served without simulating — across campaigns, tenants and
//     process restarts. The simulator is deterministic and the config
//     digest pins plan, golden behaviour and budget, so within one
//     scope a memo entry is bit-identical to a fresh execution.
//   - Blobs: immutable artifacts (assembled reports, metrics)
//     addressed by their SHA-256 digest under cas/, with named refs
//     pointing at them. Identical artifacts from identical campaigns
//     deduplicate to one blob.
//
// Durability is one append-only log, memo.bin, in the wal format every
// durable log shares: one frame per put or ref. Open replays it: a
// torn tail (a store killed mid-write) is cut; a damaged frame is
// logged and the entries before it are kept, compacted into a fresh
// log. GC evicts least-recently-used memo entries beyond the bound,
// sweeps cas/ blobs no ref points at, and compacts the log: the live
// entries in LRU order, then the refs, written to a temp log, fsynced
// and renamed over it.
//
// The store degrades, never blocks: any internal error turns a get
// into a miss and a put into a logged no-op, so a wiped or corrupt
// store costs re-execution, not correctness.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/wal"
)

// CrashMidStorePut is the chaos crash-point label fired inside a put,
// after the blob or log frame is durably staged but before the
// in-memory index absorbs it — the window where a killed process
// leaves an orphan for recovery and GC to deal with.
const CrashMidStorePut = "mid-store-put"

const (
	journalName = "memo.bin"
	casDirName  = "cas"

	// syncEvery bounds the log frames between fsyncs, mirroring the
	// runner journal's batching.
	syncEvery = 256

	// defaultMaxEntries bounds the memo index; GC evicts LRU beyond it.
	defaultMaxEntries = 1 << 18
)

// Options parameterises Open.
type Options struct {
	// Logf receives lifecycle and degradation lines (nil discards).
	Logf func(format string, args ...any)
	// MaxEntries bounds the memo index (0 = default 262144). GC evicts
	// least-recently-used entries beyond it.
	MaxEntries int
	// BlobGrace is how old an unreferenced cas/ blob must be before GC
	// removes it, protecting the PutBlob→SetRef window of a live
	// writer (0 = default 1h; negative sweeps immediately, tests
	// only).
	BlobGrace time.Duration
	// Crash arms chaos crash points (CrashMidStorePut); nil is inert.
	Crash *chaos.Crashpoints
}

// Stats is the store's observability snapshot.
type Stats struct {
	Entries int   `json:"entries"`
	Refs    int   `json:"refs"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
	Puts    int64 `json:"puts"`
	Evicted int64 `json:"evicted"`
	// SweptBlobs counts cas/ files removed by GC over this process's
	// lifetime.
	SweptBlobs int64 `json:"swept_blobs"`
}

// memoRec is one in-memory index entry. The entry is kept as raw
// JSON: decoding on every get hands each caller private maps, so no
// served entry ever aliases the index.
type memoRec struct {
	data []byte
	last uint64 // access clock, for LRU eviction
}

// Store is a concurrency-safe persistent result store. The zero value
// is not usable; call Open.
type Store struct {
	dir   string
	logf  func(string, ...any)
	crash *chaos.Crashpoints

	mu       sync.Mutex
	index    map[string]*memoRec
	refs     map[string]string // name → blob digest
	journal  *wal.Log
	clock    uint64
	bound    int
	grace    time.Duration
	stats    Stats
	crashed  bool // a fired crash point; all ops degrade until reopened
	degraded bool // journal I/O failed; serve memory, stop persisting
	closed   bool
}

// journalFormat is the memo log's header.
var journalFormat = wal.Header{Type: "header", Kind: "memo", Version: 1}

// legacyNames are the JSON-lines log and JSON snapshot of older
// builds, which are not read.
var legacyNames = []string{"memo.jsonl", "memo.snapshot.json"}

// journalLine is one memo log frame. Op "put" carries a memo entry,
// "ref" a named blob reference.
type journalLine struct {
	Op    string          `json:"op"`
	Key   string          `json:"key,omitempty"`
	Entry json.RawMessage `json:"entry,omitempty"`
	Name  string          `json:"name,omitempty"`
	Dig   string          `json:"digest,omitempty"`
}

// Open loads (or initialises) the store under dir by replaying its
// log.
func Open(dir string, opts Options) (*Store, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	bound := opts.MaxEntries
	if bound <= 0 {
		bound = defaultMaxEntries
	}
	grace := opts.BlobGrace
	if grace == 0 {
		grace = time.Hour
	}
	if err := os.MkdirAll(filepath.Join(dir, casDirName), 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	s := &Store{
		dir:   dir,
		logf:  logf,
		crash: opts.Crash,
		index: make(map[string]*memoRec),
		refs:  make(map[string]string),
		bound: bound,
		grace: grace,
	}
	for _, name := range legacyNames {
		if path := filepath.Join(dir, name); os.Remove(path) == nil {
			logf("store: removed %s, a log of an older build this one does not read — its entries are re-executed", path)
		}
	}
	path := filepath.Join(dir, journalName)
	validLen, err := wal.Load(path, journalFormat, nil, s.replay)
	if err == nil {
		s.journal, err = wal.Open(path, journalFormat, validLen, syncEvery)
	} else {
		// External damage. The store is a cache, not the source of
		// truth: keep what replayed before the damage and go on.
		logf("store: %v — keeping the %d entries and %d refs before it", err, len(s.index), len(s.refs))
		err = s.compactLocked(0)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return s, nil
}

// replay applies one log frame to the index.
func (s *Store) replay(payload []byte) error {
	var jl journalLine
	if err := json.Unmarshal(payload, &jl); err != nil {
		return err
	}
	switch jl.Op {
	case "put":
		s.clock++
		s.index[jl.Key] = &memoRec{data: jl.Entry, last: s.clock}
	case "ref":
		s.refs[jl.Name] = jl.Dig
	}
	return nil
}

// memoIndexKey collapses (scope, key) into one digest so the index
// never holds tenant- or campaign-identifying plaintext and lookups
// stay O(1) regardless of key size.
func memoIndexKey(scope string, k campaign.MemoKey) string {
	kj, _ := json.Marshal(k) // struct of scalars; cannot fail
	h := sha256.New()
	h.Write([]byte(scope))
	h.Write([]byte{0})
	h.Write(kj)
	return hex.EncodeToString(h.Sum(nil))[:32]
}

// GetMemo implements runner.MemoStore. Any internal failure reports a
// miss: the run then executes in full, so degradation is invisible to
// correctness.
func (s *Store) GetMemo(scope string, k campaign.MemoKey) (campaign.MemoEntry, bool) {
	key := memoIndexKey(scope, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return campaign.MemoEntry{}, false
	}
	rec, ok := s.index[key]
	if !ok {
		s.stats.Misses++
		return campaign.MemoEntry{}, false
	}
	var e campaign.MemoEntry
	if err := json.Unmarshal(rec.data, &e); err != nil {
		// A damaged entry is dropped, not served.
		delete(s.index, key)
		s.stats.Misses++
		s.logf("store: memo entry %s corrupt (%v) — dropped", key, err)
		return campaign.MemoEntry{}, false
	}
	s.clock++
	rec.last = s.clock
	s.stats.Hits++
	return e, true
}

// PutMemo implements runner.MemoStore. Failures are logged, never
// returned: the result is already journaled by the campaign layer,
// the store only accelerates the next one.
func (s *Store) PutMemo(scope string, k campaign.MemoKey, e campaign.MemoEntry) {
	data, err := json.Marshal(e)
	if err != nil {
		s.logf("store: encoding memo entry: %v", err)
		return
	}
	key := memoIndexKey(scope, k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return
	}
	if old, ok := s.index[key]; ok && string(old.data) == string(data) {
		// Idempotent re-put (every worker of a re-run campaign offers
		// the same results back) — refresh recency, skip the journal.
		s.clock++
		old.last = s.clock
		return
	}
	s.appendLocked(journalLine{Op: "put", Key: key, Entry: data})
	s.hitCrashLocked()
	s.clock++
	s.index[key] = &memoRec{data: data, last: s.clock}
	s.stats.Puts++
}

// PutBlob stores an immutable artifact under its SHA-256 digest and
// returns the digest. Storing the same bytes twice is free.
func (s *Store) PutBlob(data []byte) (string, error) {
	sum := sha256.Sum256(data)
	dig := hex.EncodeToString(sum[:])
	path := s.blobPath(dig)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return "", errors.New("store: not serving (crashed or closed)")
	}
	if _, err := os.Stat(path); err == nil {
		return dig, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", fmt.Errorf("store: creating blob shard: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", fmt.Errorf("store: writing blob: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", fmt.Errorf("store: installing blob: %w", err)
	}
	// The blob is durable but nothing references it yet — the exact
	// window mid-store-put simulates dying in; GC's grace period is
	// what makes the orphan harmless.
	s.hitCrashLocked()
	return dig, nil
}

// GetBlob returns the artifact stored under digest.
func (s *Store) GetBlob(digest string) ([]byte, error) {
	if !validDigest(digest) {
		return nil, fmt.Errorf("store: invalid blob digest %q", digest)
	}
	data, err := os.ReadFile(s.blobPath(digest))
	if err != nil {
		return nil, fmt.Errorf("store: reading blob %s: %w", digest, err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != digest {
		return nil, fmt.Errorf("store: blob %s fails its own digest — damaged on disk", digest)
	}
	return data, nil
}

// SetRef journals a named reference to a blob, pinning it against GC.
func (s *Store) SetRef(name, digest string) error {
	if !validDigest(digest) {
		return fmt.Errorf("store: invalid blob digest %q", digest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed || s.closed {
		return errors.New("store: not serving (crashed or closed)")
	}
	if s.refs[name] == digest {
		return nil
	}
	s.appendLocked(journalLine{Op: "ref", Name: name, Dig: digest})
	s.refs[name] = digest
	return nil
}

// Ref resolves a named reference.
func (s *Store) Ref(name string) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.refs[name]
	return d, ok
}

// appendLocked journals one delta, degrading on I/O failure: the
// in-memory index keeps serving, persistence stops until reopened.
func (s *Store) appendLocked(jl journalLine) {
	if s.degraded {
		return
	}
	if err := s.journal.Append(encodeLine(jl)); err != nil {
		s.degraded = true
		s.logf("store: %v — degraded to in-memory only", err)
	}
}

func (s *Store) hitCrashLocked() {
	if s.crash != nil && s.crash.Hit(CrashMidStorePut) {
		s.crashed = true
		// Everything before this instruction is on disk; nothing after
		// it happens. The in-memory state is poisoned — Open on the
		// same directory is the only way forward, exactly like a
		// killed process.
		s.journal.Sync()
		s.logf("store: chaos crash point %q fired — store dead until reopened", CrashMidStorePut)
	}
}

// compactLocked evicts the evict least recently used entries, then
// rewrites the log as the live state — entries in LRU order, so a
// replay restores recency, then refs — through a temp log that is
// fsynced and renamed over it, atomically. Appends go to the new log
// from then on.
func (s *Store) compactLocked(evict int) error {
	keys := make([]string, 0, len(s.index))
	for k := range s.index {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return s.index[keys[i]].last < s.index[keys[j]].last })
	for _, k := range keys[:evict] {
		delete(s.index, k)
	}
	s.stats.Evicted += int64(evict)
	if s.degraded {
		return errors.New("degraded — refusing to compact partial state")
	}
	var frames []byte
	for _, k := range keys[evict:] {
		frames = wal.AppendFrame(frames, encodeLine(journalLine{Op: "put", Key: k, Entry: s.index[k].data}))
	}
	names := make([]string, 0, len(s.refs))
	for name := range s.refs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		frames = wal.AppendFrame(frames, encodeLine(journalLine{Op: "ref", Name: name, Dig: s.refs[name]}))
	}
	path := filepath.Join(s.dir, journalName)
	tmp, err := wal.Open(path+".tmp", journalFormat, 0, syncEvery)
	if err != nil {
		return err
	}
	if err = tmp.Write(frames, 0); err == nil {
		err = tmp.Sync()
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	if err != nil {
		tmp.Close()
		return fmt.Errorf("compacting the log: %w", err)
	}
	if s.journal != nil {
		s.journal.Close()
	}
	s.journal = tmp
	return nil
}

// encodeLine encodes one log frame's payload.
func encodeLine(jl journalLine) []byte {
	data, _ := json.Marshal(jl) // strings, and an entry that is valid JSON: cannot fail
	return data
}

// GCStats summarises one collection.
type GCStats struct {
	EvictedEntries int `json:"evicted_entries"`
	SweptBlobs     int `json:"swept_blobs"`
	Entries        int `json:"entries"`
}

// GC evicts least-recently-used memo entries beyond the bound, sweeps
// cas/ blobs no ref points at (older than the grace period), and
// compacts the log.
func (s *Store) GC() (GCStats, error) {
	s.mu.Lock()
	var gs GCStats
	if s.crashed || s.closed {
		s.mu.Unlock()
		return gs, errors.New("store: not serving (crashed or closed)")
	}
	gs.EvictedEntries = max(len(s.index)-s.bound, 0)
	if err := s.compactLocked(gs.EvictedEntries); err != nil {
		s.logf("store: gc: %v", err)
	}
	referenced := make(map[string]bool, len(s.refs))
	for _, dig := range s.refs {
		referenced[dig] = true
	}
	grace := s.grace
	dir := s.dir
	gs.Entries = len(s.index)
	s.mu.Unlock()

	// The blob sweep walks the filesystem without the lock: a PutBlob
	// racing the sweep is protected by the grace period, and refs
	// journaled after the referenced set was built keep their blobs
	// only if older than grace — which a just-written blob never is.
	cutoff := time.Now().Add(-grace)
	casRoot := filepath.Join(dir, casDirName)
	swept := 0
	_ = filepath.WalkDir(casRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || strings.HasSuffix(path, ".tmp") {
			return nil
		}
		dig := filepath.Base(path)
		if referenced[dig] {
			return nil
		}
		if fi, err := d.Info(); err != nil || fi.ModTime().After(cutoff) {
			return nil
		}
		if os.Remove(path) == nil {
			swept++
		}
		return nil
	})
	gs.SweptBlobs = swept
	s.mu.Lock()
	s.stats.SweptBlobs += int64(swept)
	s.mu.Unlock()
	return gs, nil
}

// Stats returns the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Entries = len(s.index)
	st.Refs = len(s.refs)
	return st
}

// Close syncs and closes the log. The store stops serving.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.journal.Close()
}

func (s *Store) blobPath(digest string) string {
	return filepath.Join(s.dir, casDirName, digest[:2], digest)
}

func validDigest(d string) bool {
	if len(d) != 64 {
		return false
	}
	_, err := hex.DecodeString(d)
	return err == nil
}
