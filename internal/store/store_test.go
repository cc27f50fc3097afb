package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/sim"
	"propane/internal/trace"
	"propane/internal/wal"
)

func testKey(i int) campaign.MemoKey {
	return campaign.MemoKey{
		Case:     i,
		Digest:   "d-abc",
		Module:   "brake",
		Signal:   "v_in",
		FireTick: sim.Millis(40 + i),
		Value:    uint16(7 + i),
		Budget:   1000,
	}
}

func testEntry(i int) campaign.MemoEntry {
	return campaign.MemoEntry{
		Outcome: campaign.OutcomeDeviation,
		Detail:  "dev",
		FiredAt: sim.Millis(40 + i),
		Diffs: trace.Diffs{
			{Signal: "out", First: sim.Millis(i), Last: sim.Millis(90 + i), Count: 3},
		},
	}
}

func TestMemoRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, ok := s.GetMemo("scope", testKey(1)); ok {
		t.Fatal("hit on an empty store")
	}
	s.PutMemo("scope", testKey(1), testEntry(1))
	e, ok := s.GetMemo("scope", testKey(1))
	if !ok {
		t.Fatal("miss right after put")
	}
	if !reflect.DeepEqual(e, testEntry(1)) {
		t.Fatalf("entry mutated through the store: %+v", e)
	}
	// Scope isolation: the same key under another scope is a miss.
	if _, ok := s.GetMemo("other", testKey(1)); ok {
		t.Fatal("scope leak: entry served under a foreign scope")
	}
	// Served entries are decoded afresh from the stored bytes.
	e.Diffs[0] = trace.Diff{Signal: "out", First: -1}
	again, _ := s.GetMemo("scope", testKey(1))
	if again.Diffs[0].First != 1 {
		t.Fatalf("served diff slice aliases the store: %+v", again.Diffs[0])
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestMemoEntryJSONStable serves an entry persisted when MemoEntry
// held its diffs in a map keyed by signal: the stored bytes decode
// into the ascending diff slice, re-encode to the same bytes, and so
// putting the served entry back is an idempotent re-put. Keys that
// JSON escapes take encoding/json's own path.
func TestMemoEntryJSONStable(t *testing.T) {
	const stored = `{"outcome":"deviation","detail":"\u003cdev \u0026 more\u003e","fired_at":41,"diffs":{` +
		`"a\u003cb":{"Signal":"a\u003cb","First":43,"Last":43,"Count":1},` +
		`"brake":{"Signal":"brake","First":44,"Last":95,"Count":52},` +
		`"v_out":{"Signal":"v_out","First":42,"Last":90,"Count":7}}}`
	want := campaign.MemoEntry{Outcome: campaign.OutcomeDeviation, Detail: "<dev & more>", FiredAt: 41,
		Diffs: trace.Diffs{
			{Signal: "a<b", First: 43, Last: 43, Count: 1},
			{Signal: "brake", First: 44, Last: 95, Count: 52},
			{Signal: "v_out", First: 42, Last: 90, Count: 7},
		}}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.index[memoIndexKey("scope", testKey(1))] = &memoRec{data: []byte(stored)}
	e, ok := s.GetMemo("scope", testKey(1))
	if !ok || !reflect.DeepEqual(e, want) {
		t.Fatalf("served %+v, %v; want %+v", e, ok, want)
	}
	if data, err := json.Marshal(e); err != nil || string(data) != stored {
		t.Fatalf("re-encoded as\n%s (%v), want\n%s", data, err, stored)
	}
	s.PutMemo("scope", testKey(1), e)
	if st := s.Stats(); st.Puts != 0 {
		t.Errorf("putting the served entry back wrote %d puts, want an idempotent re-put", st.Puts)
	}
}

func TestReopenReplaysJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		s.PutMemo("scope", testKey(i), testEntry(i))
	}
	dig, err := s.PutBlob([]byte("report"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRef("campaign/c1/report.md", dig); err != nil {
		t.Fatal(err)
	}
	// No compaction: reopen must replay the log.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 10; i++ {
		e, ok := s2.GetMemo("scope", testKey(i))
		if !ok {
			t.Fatalf("entry %d lost across reopen", i)
		}
		if !reflect.DeepEqual(e, testEntry(i)) {
			t.Fatalf("entry %d damaged across reopen: %+v", i, e)
		}
	}
	if d, ok := s2.Ref("campaign/c1/report.md"); !ok || d != dig {
		t.Fatalf("ref lost across reopen: %q %v", d, ok)
	}
	if data, err := s2.GetBlob(dig); err != nil || string(data) != "report" {
		t.Fatalf("blob lost across reopen: %q %v", data, err)
	}
}

// TestSnapshotCompactsJournal overwrites every entry once, so the log
// holds two frames per entry, and compacts it (GC): the log then holds one
// frame per live entry, and a reopened store serves all of them.
func TestSnapshotCompactsJournal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 50; i++ {
			e := testEntry(i)
			e.Detail = fmt.Sprint("round ", round)
			s.PutMemo("scope", testKey(i), e)
		}
	}
	if n := countFrames(t, dir); n != 100 {
		t.Fatalf("log holds %d frames before compaction, want 100", n)
	}
	if _, err := s.GC(); err != nil {
		t.Fatal(err)
	}
	if n := countFrames(t, dir); n != 50 {
		t.Fatalf("log holds %d frames after compaction, want one per live entry, 50", n)
	}
	s.Close()

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 50; i++ {
		if e, ok := s2.GetMemo("scope", testKey(i)); !ok || e.Detail != "round 1" {
			t.Fatalf("entry %d across compaction and reopen: %+v, %v; want the second round's", i, e, ok)
		}
	}
}

// countFrames counts the frames of the memo log under dir.
func countFrames(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	if _, err := wal.Load(filepath.Join(dir, journalName), journalFormat, nil, func([]byte) error {
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestCorruptFrameNeverServed changes one digit inside the third of
// five entries' frames — an edit that still parses as JSON. The frame
// fails its checksum: the altered entry is never served, the entries
// before it are, and the store keeps accepting writes.
func TestCorruptFrameNeverServed(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // log length after each put
	path := filepath.Join(dir, journalName)
	for i := 0; i < 5; i++ {
		s.PutMemo("scope", testKey(i), testEntry(i))
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		ends = append(ends, int(fi.Size()))
	}
	s.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	third := data[ends[1]:ends[2]]
	at := bytes.Index(third, []byte(`"Count":3`))
	if at < 0 {
		t.Fatalf("third frame holds no count: %q", third)
	}
	third[at+len(`"Count":`)] = '4'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logged []string
	s2, err := Open(dir, Options{Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if e, ok := s2.GetMemo("scope", testKey(2)); ok {
		t.Fatalf("altered entry served: %+v", e)
	}
	for i := 0; i < 2; i++ {
		if _, ok := s2.GetMemo("scope", testKey(i)); !ok {
			t.Errorf("intact entry %d before the damage lost", i)
		}
	}
	if len(logged) == 0 || !strings.Contains(logged[0], "checksum") {
		t.Errorf("damage not logged as corruption: %q", logged)
	}
	s2.PutMemo("scope", testKey(2), testEntry(2))
	if e, ok := s2.GetMemo("scope", testKey(2)); !ok || !reflect.DeepEqual(e, testEntry(2)) {
		t.Fatalf("store over a damaged log rejects writes: %+v, %v", e, ok)
	}
}

// TestLegacyFilesStartEmpty opens a store over the JSON-lines log and
// JSON snapshot of an older build: it says so, removes them and starts
// empty.
func TestLegacyFilesStartEmpty(t *testing.T) {
	for _, name := range legacyNames {
		dir := t.TempDir()
		legacy := filepath.Join(dir, name)
		if err := os.WriteFile(legacy, []byte(`{"op":"put","key":"k","entry":{}}`+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		var logged []string
		s, err := Open(dir, Options{Logf: func(f string, a ...any) { logged = append(logged, fmt.Sprintf(f, a...)) }})
		if err != nil {
			t.Fatal(err)
		}
		if st := s.Stats(); st.Entries != 0 || st.Refs != 0 {
			t.Errorf("%s: store starts with %+v, want empty", name, st)
		}
		s.Close()
		if len(logged) != 1 || !strings.Contains(logged[0], legacy) {
			t.Errorf("%s: logged %q, want one line naming the file", name, logged)
		}
		if _, err := os.Stat(legacy); err == nil {
			t.Errorf("%s: legacy file left in place", name)
		}
	}
}

func TestTornJournalTailHeals(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		s.PutMemo("scope", testKey(i), testEntry(i))
	}
	s.Close()
	// Simulate a kill mid-append: chop the journal mid-line.
	path := filepath.Join(dir, journalName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("torn tail not healed: %v", err)
	}
	defer s2.Close()
	for i := 0; i < 4; i++ {
		if _, ok := s2.GetMemo("scope", testKey(i)); !ok {
			t.Fatalf("intact entry %d lost to healing", i)
		}
	}
	if _, ok := s2.GetMemo("scope", testKey(4)); ok {
		t.Fatal("torn entry served")
	}
	// The healed store must accept new writes.
	s2.PutMemo("scope", testKey(4), testEntry(4))
	if _, ok := s2.GetMemo("scope", testKey(4)); !ok {
		t.Fatal("healed store rejects writes")
	}
}

func TestGCEvictsLRUAndSweepsOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxEntries: 4, BlobGrace: -time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 8; i++ {
		s.PutMemo("scope", testKey(i), testEntry(i))
	}
	// Refresh 0..1 so 2..5 are the LRU victims.
	s.GetMemo("scope", testKey(0))
	s.GetMemo("scope", testKey(1))

	kept, _ := s.PutBlob([]byte("kept"))
	orphan, _ := s.PutBlob([]byte("orphan"))
	if err := s.SetRef("keep", kept); err != nil {
		t.Fatal(err)
	}

	gs, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if gs.EvictedEntries != 4 || gs.Entries != 4 {
		t.Fatalf("gc stats: %+v", gs)
	}
	if gs.SweptBlobs != 1 {
		t.Fatalf("swept %d blobs, want the 1 orphan", gs.SweptBlobs)
	}
	for _, i := range []int{0, 1, 6, 7} {
		if _, ok := s.GetMemo("scope", testKey(i)); !ok {
			t.Errorf("recently used entry %d evicted", i)
		}
	}
	for _, i := range []int{2, 3, 4, 5} {
		if _, ok := s.GetMemo("scope", testKey(i)); ok {
			t.Errorf("LRU entry %d survived", i)
		}
	}
	if _, err := s.GetBlob(kept); err != nil {
		t.Errorf("referenced blob swept: %v", err)
	}
	if _, err := s.GetBlob(orphan); err == nil {
		t.Error("orphan blob survived the sweep")
	}
}

func TestCrashpointMidStorePut(t *testing.T) {
	dir := t.TempDir()
	cps := chaos.NewCrashpoints(nil)
	cps.Arm(CrashMidStorePut, 3)
	s, err := Open(dir, Options{Crash: cps})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		s.PutMemo("scope", testKey(i), testEntry(i))
	}
	if got := cps.Fired(); len(got) != 1 || got[0] != CrashMidStorePut {
		t.Fatalf("crash point did not fire: %v", got)
	}
	// Dead store: every op degrades.
	if _, ok := s.GetMemo("scope", testKey(0)); ok {
		t.Fatal("crashed store still serving")
	}
	if _, err := s.PutBlob([]byte("x")); err == nil {
		t.Fatal("crashed store accepted a blob")
	}
	s.Close()

	// Reopen recovers the durable prefix: entries journaled before the
	// crash (the crash fires mid-put #3, after its journal append).
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 3; i++ {
		if _, ok := s2.GetMemo("scope", testKey(i)); !ok {
			t.Fatalf("pre-crash entry %d lost", i)
		}
	}
	for i := 3; i < 6; i++ {
		if _, ok := s2.GetMemo("scope", testKey(i)); ok {
			t.Fatalf("post-crash entry %d survived a dead store", i)
		}
	}
}

func TestWipedStoreDegrades(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.PutMemo("scope", testKey(1), testEntry(1))
	// Wipe the directory under the live store: persistence dies, the
	// in-memory index keeps serving, and nothing errors at the caller.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < syncEvery+8; i++ {
		s.PutMemo("scope", testKey(100+i), testEntry(i))
	}
	if _, ok := s.GetMemo("scope", testKey(1)); !ok {
		t.Fatal("in-memory entry lost on wipe")
	}
	// A fresh store over the wiped directory starts empty — misses
	// everywhere, callers fall back to execution.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, ok := s2.GetMemo("scope", testKey(1)); ok {
		t.Fatal("wiped store served a ghost entry")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s, err := Open(t.TempDir(), Options{MaxEntries: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := testKey(i % 32)
				if i%3 == 0 {
					s.PutMemo("scope", k, testEntry(i%32))
				} else if e, ok := s.GetMemo("scope", k); ok {
					if e.FiredAt != testEntry(i%32).FiredAt {
						t.Errorf("worker %d: damaged entry %+v", w, e)
						return
					}
				}
				if i%50 == 0 {
					if _, err := s.GC(); err != nil {
						t.Errorf("worker %d: gc: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
