package distrib

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propane/internal/report"
	"propane/internal/runner"
	"propane/internal/wal"
)

// fingerprint reduces a result to what the bit-identity criterion
// cares about: the permeability matrix (bit-identical CSV) and the
// raw run counts.
func fingerprint(rr *runner.RunResult) (string, int, int) {
	return report.MatrixCSV(rr.Result.Matrix), rr.Result.Runs, rr.Result.Unfired
}

// baseline runs the reference campaign once per test binary: the
// single-node result every distributed run must reproduce exactly.
var (
	baselineOnce    sync.Once
	baselineMatrix  string
	baselineRuns    int
	baselineUnfired int
	baselineDigest  string // RecordSetDigest of the run's journal
	baselineErr     error
)

func baseline(t *testing.T) (string, int, int) {
	t.Helper()
	baselineOnce.Do(func() {
		dir, err := os.MkdirTemp("", "propane-direct-*")
		if err != nil {
			baselineErr = err
			return
		}
		defer os.RemoveAll(dir)
		rr, err := runner.RunInstance("reduced", runner.TierQuick, runner.Options{Dir: dir})
		if err != nil {
			baselineErr = err
			return
		}
		baselineMatrix, baselineRuns, baselineUnfired = fingerprint(rr)
		_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
		if err != nil {
			baselineErr = err
			return
		}
		baselineDigest = runner.RecordSetDigest(recs)
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineMatrix, baselineRuns, baselineUnfired
}

// assertMatchesBaseline fails unless rr is bit-identical to the
// single-node run.
func assertMatchesBaseline(t *testing.T, rr *runner.RunResult) {
	t.Helper()
	wantM, wantR, wantU := baseline(t)
	gotM, gotR, gotU := fingerprint(rr)
	if gotR != wantR || gotU != wantU {
		t.Errorf("assembled counts = (%d runs, %d unfired), direct = (%d, %d)", gotR, gotU, wantR, wantU)
	}
	if gotM != wantM {
		t.Errorf("assembled permeability matrix differs from the direct run:\n--- direct ---\n%s\n--- assembled ---\n%s", wantM, gotM)
	}
}

// serveCoordinator starts c's HTTP API on an ephemeral loopback
// listener, returning the base URL and the server for shutdown.
func serveCoordinator(t *testing.T, c *Coordinator) (string, *http.Server) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(c.Handler())
	go srv.Serve(l)
	return "http://" + l.Addr().String(), srv
}

// recordFrame encodes recs as one /v1/records binary frame — the only
// body encoding the endpoint takes.
func recordFrame(t testing.TB, leaseID string, recs []runner.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeRecordBatch(&buf, RecordBatch{LeaseID: leaseID, Records: recs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLoopbackMatchesDirect is the subsystem's core guarantee: the
// paper campaign decomposed into units, executed by a fleet over real
// HTTP, and reassembled, is bit-identical to a single-node run.
func TestLoopbackMatchesDirect(t *testing.T) {
	rr, err := Loopback(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      t.TempDir(),
		Units:    4,
		Logf:     t.Logf,
	}, 2, WorkerOptions{BatchSize: 8, PollInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
}

// TestUnitCompletesOnce pins the one finish path: a worker uploads a
// unit's records and then completes it with exactly one /v1/complete,
// and the coordinator journals the single-node run's record set.
func TestUnitCompletesOnce(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    4,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	var completes atomic.Int64
	h := coord.Handler()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == PathComplete {
			completes.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	go srv.Serve(l)
	defer srv.Close()
	url := "http://" + l.Addr().String()

	errs := make(chan error, 2)
	for _, name := range []string{"a1", "a2"} {
		go func() {
			errs <- RunWorker(url, WorkerOptions{
				Name: name, Dir: filepath.Join(dir, "scratch", name),
				BatchSize: 16, PollInterval: 50 * time.Millisecond, Logf: t.Logf,
			})
		}()
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	rr, err := coord.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
	if units, got := len(coord.Status().UnitsDetail), completes.Load(); got != int64(units) {
		t.Errorf("%d /v1/complete calls for %d units, want one per unit", got, units)
	}
	_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if runner.RecordSetDigest(recs) != baselineDigest {
		t.Error("coordinator journal's record set differs from the single-node run's")
	}
}

// runPartialWorker drives the real wire protocol by hand: lease a
// unit, upload maxStream records one frame each while the unit still
// runs, then vanish without a heartbeat or complete — a worker killed
// mid-lease. Returns how many records
// the coordinator received and the leased unit's id.
func runPartialWorker(t *testing.T, url, scratch string, maxStream int) (streamed, unitID int) {
	t.Helper()
	w := &worker{
		base:   url,
		opts:   WorkerOptions{Name: "dying", Dir: scratch, Workers: 1, Logf: t.Logf},
		ctx:    context.Background(),
		client: &http.Client{Timeout: 10 * time.Second},
	}
	if err := w.opts.normalise(); err != nil {
		t.Fatal(err)
	}
	var lr LeaseResponse
	if err := w.post(PathLease, LeaseRequest{Worker: w.opts.Name}, &lr); err != nil {
		t.Fatal(err)
	}
	if lr.Status != StatusUnit {
		t.Fatalf("partial worker got lease status %q, want %q", lr.Status, StatusUnit)
	}
	u := lr.Unit
	p, err := w.prepare(u)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	count := 0
	ro := runner.Options{
		Dir:        w.scratchDir(u),
		Resume:     true,
		SkipReport: true,
		Jobs:       u.JobList,
		Abort:      func() bool { return stop.Load() },
	}
	ro.OnRecord = func(rec runner.Record, replayed bool) error {
		if count >= maxStream {
			stop.Store(true)
			return nil
		}
		var br BatchResponse
		if err := w.send(PathRecords, ContentTypeBinary, recordFrame(t, lr.LeaseID, []runner.Record{rec}), &br); err != nil {
			return err
		}
		count++
		if count >= maxStream {
			stop.Store(true)
		}
		return nil
	}
	if _, err := p.Run(ro); err != nil {
		t.Fatal(err)
	}
	if count == 0 {
		t.Fatal("partial worker streamed nothing — the test needs partial progress on the unit")
	}
	return count, u.Unit
}

// TestLeaseExpiryReassignment kills a worker mid-lease and asserts
// the fleet reclaims the unit after the TTL: the unit is leased a
// second time, the dead worker's streamed records are not
// re-executed, and the assembled matrix is still bit-identical.
func TestLeaseExpiryReassignment(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    3,
		LeaseTTL: 750 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	streamed, unitID := runPartialWorker(t, url, filepath.Join(dir, "scratch"), 2)

	const fleet = 3
	errs := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("w%d", i+1)
		go func() {
			errs <- RunWorker(url, WorkerOptions{
				Name:         name,
				Dir:          filepath.Join(dir, "scratch"),
				BatchSize:    4,
				PollInterval: 100 * time.Millisecond,
				Logf:         t.Logf,
			})
		}()
	}
	select {
	case <-coord.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not complete — expired lease never reassigned?")
	}
	for i := 0; i < fleet; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	st := coord.Status()
	if got := st.UnitsDetail[unitID].Attempts; got < 2 {
		t.Errorf("unit %d leased %d times, want >= 2 (expiry should have reassigned it)", unitID, got)
	}
	m := coord.Metrics()
	if m.ReceivedRuns != m.TotalRuns {
		t.Errorf("coordinator received %d live runs, want %d", m.ReceivedRuns, m.TotalRuns)
	}
	_ = streamed // progress asserted inside runPartialWorker

	rr, err := coord.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
	// Assembly released the prepared campaign and its golden traces.
	if _, err := coord.Assemble(); err == nil {
		t.Error("a second Assemble succeeded after the prepared campaign was released")
	}
}

// TestLeaseLongPollPromptness pins the idle-wait fix: with the fleet's
// only unit leased to a silent worker, a second worker's lease request
// parks inside the coordinator's long-poll and is answered with the
// reclaimed unit in one round-trip as soon as the lease expires —
// instead of bouncing through sleep/retry cycles and discovering the
// free unit a poll interval late.
func TestLeaseLongPollPromptness(t *testing.T) {
	dir := t.TempDir()
	const ttl = 500 * time.Millisecond
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    1,
		LeaseTTL: ttl,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	w := &worker{
		base:   url,
		opts:   WorkerOptions{Name: "probe", Dir: dir, Logf: t.Logf},
		ctx:    context.Background(),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	var a LeaseResponse
	if err := w.post(PathLease, LeaseRequest{Worker: "silent"}, &a); err != nil {
		t.Fatal(err)
	}
	if a.Status != StatusUnit {
		t.Fatalf("first lease got status %q, want %q", a.Status, StatusUnit)
	}

	// The silent worker never heartbeats; the eager one's request must
	// hold until the TTL reclaims the unit, then return it directly.
	start := time.Now()
	var b LeaseResponse
	if err := w.post(PathLease, LeaseRequest{Worker: "eager"}, &b); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if b.Status != StatusUnit {
		t.Fatalf("parked lease got status %q after %v, want the expired unit", b.Status, elapsed)
	}
	if b.Unit == nil || b.Unit.Unit != a.Unit.Unit {
		t.Fatalf("parked lease returned unit %+v, want unit %d", b.Unit, a.Unit.Unit)
	}
	if elapsed < ttl/2 {
		t.Errorf("unit handed over after %v, before the %v lease could expire", elapsed, ttl)
	}
	if elapsed > ttl+2*time.Second {
		t.Errorf("parked lease answered after %v — long-poll did not wake on expiry (TTL %v)", elapsed, ttl)
	}
}

// TestCoordinatorCrashRestart kills both sides mid-campaign: a worker
// dies after streaming part of its unit, then the coordinator "dies"
// (server closed, files closed) and restarts with Resume — restoring
// the streamed records from its journals — and the dead worker
// restarts under its old identity and scratch. The resumed coordinator
// claims fresh units from the jobs its journal lacks, so no lease it
// grants names a job it already holds, nothing journaled re-executes,
// and the reassembled result is bit-identical.
func TestCoordinatorCrashRestart(t *testing.T) {
	dir := t.TempDir()
	cc := Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    3,
		LeaseTTL: 2 * time.Second,
		Logf:     t.Logf,
	}
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	url, srv := serveCoordinator(t, coord)
	streamed, _ := runPartialWorker(t, url, filepath.Join(dir, "scratch"), 2)

	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	_, journaled, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	held := make(map[int]bool, len(journaled))
	for _, rec := range journaled {
		held[rec.Job] = true
	}

	cc.Resume = true
	coord2, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if st.DoneRuns != streamed {
		t.Fatalf("restarted coordinator restored %d runs, want %d", st.DoneRuns, streamed)
	}

	// Tee every lease the resumed coordinator grants.
	var (
		leaseMu sync.Mutex
		leases  []LeaseResponse
	)
	h := coord2.Handler()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2 := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != PathLease {
			h.ServeHTTP(w, r)
			return
		}
		tee := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(tee, r)
		var lr LeaseResponse
		if json.Unmarshal(tee.buf.Bytes(), &lr) == nil && lr.Status == StatusUnit {
			leaseMu.Lock()
			leases = append(leases, lr)
			leaseMu.Unlock()
		}
	}))
	go srv2.Serve(l)
	defer srv2.Close()
	url2 := "http://" + l.Addr().String()

	// The worker restarts with its old name and scratch root.
	if err := RunWorker(url2, WorkerOptions{
		Name:         "dying",
		Dir:          filepath.Join(dir, "scratch"),
		BatchSize:    4,
		PollInterval: 50 * time.Millisecond,
		Logf:         t.Logf,
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("worker exited but the campaign is not complete")
	}

	leaseMu.Lock()
	defer leaseMu.Unlock()
	if len(leases) == 0 {
		t.Fatal("resumed coordinator granted no lease")
	}
	for _, lr := range leases {
		if len(lr.Unit.DoneJobs) != 0 {
			t.Errorf("lease %s re-grants journaled jobs %v", lr.LeaseID, lr.Unit.DoneJobs)
		}
		for _, job := range lr.Unit.JobList {
			if held[job] {
				t.Errorf("lease %s lists job %d, which the resumed journal already holds", lr.LeaseID, job)
			}
		}
	}

	m := coord2.Metrics()
	if m.ResumedRuns != streamed {
		t.Errorf("metrics count %d resumed runs, want %d", m.ResumedRuns, streamed)
	}
	if m.ReceivedRuns != m.TotalRuns-streamed {
		t.Errorf("metrics count %d live runs, want %d (resumed records must not re-execute)",
			m.ReceivedRuns, m.TotalRuns-streamed)
	}

	rr, err := coord2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
	if rr.Metrics.ReplayedRuns != streamed || rr.Metrics.ExecutedRuns != m.TotalRuns-streamed {
		t.Errorf("assembly counts %d replayed, %d executed runs, want %d resumed and %d received",
			rr.Metrics.ReplayedRuns, rr.Metrics.ExecutedRuns, streamed, m.TotalRuns-streamed)
	}
}

// TestPaperCampaignLoopback is the acceptance run at production
// scale: the paper's full 52 000-run campaign through coordinator +
// 3 loopback workers, bit-identical to a single-node RunInstance.
// Gated behind PROPANE_PAPER_TEST=1 (minutes of CPU); the kill/
// restart machinery this relies on is pinned at quick scale by
// TestLeaseExpiryReassignment and TestCoordinatorCrashRestart.
func TestPaperCampaignLoopback(t *testing.T) {
	if os.Getenv("PROPANE_PAPER_TEST") == "" {
		t.Skip("set PROPANE_PAPER_TEST=1 to run the full paper campaign through the distributed path")
	}
	direct, err := runner.RunInstance("paper", runner.TierFull, runner.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Loopback(Config{
		Instance: "paper",
		Tier:     runner.TierFull,
		Dir:      t.TempDir(),
		Units:    8,
		Logf:     t.Logf,
	}, 3, WorkerOptions{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantR, wantU := fingerprint(direct)
	gotM, gotR, gotU := fingerprint(rr)
	if gotR != wantR || gotU != wantU {
		t.Errorf("assembled counts = (%d runs, %d unfired), direct = (%d, %d)", gotR, gotU, wantR, wantU)
	}
	if gotM != wantM {
		t.Error("assembled paper-campaign matrix differs from the single-node run")
	}
}

// TestFreshDirRefusesExistingJournal pins the guard against silently
// mixing campaigns: a coordinator without Resume refuses a directory
// holding journal records.
func TestFreshDirRefusesExistingJournal(t *testing.T) {
	dir := t.TempDir()
	cc := Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Logf:     t.Logf,
	}
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	url, srv := serveCoordinator(t, coord)
	runPartialWorker(t, url, filepath.Join(dir, "scratch"), 1)
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewCoordinator(cc); err == nil {
		t.Fatal("coordinator reused a directory with journal records without Resume")
	}
}

// TestAssignmentLogTornTail resumes a coordinator over an assignment
// log whose last frame a kill tore, grants more leases, and resumes
// again: the torn frame is cut before the next append, so the lease
// sequence replays every grant and no lease ID is issued twice.
func TestAssignmentLogTornTail(t *testing.T) {
	dir := t.TempDir()
	cc := Config{Instance: "reduced", Tier: runner.TierQuick, Dir: dir, Units: 3, LeaseTTL: time.Minute, Logf: t.Logf}
	issued := map[string]int{}
	grant := func(incarnation, leases int) {
		coord, err := NewCoordinator(cc)
		if err != nil {
			t.Fatalf("incarnation %d: %v", incarnation, err)
		}
		for i := 1; i <= leases; i++ {
			w := fmt.Sprintf("w%d", i)
			lr, ok := coord.TryLease(w)
			if !ok {
				t.Fatalf("incarnation %d: no unit leased to %s", incarnation, w)
			}
			if prev, dup := issued[lr.LeaseID]; dup {
				t.Errorf("incarnation %d reissued lease %s of incarnation %d", incarnation, lr.LeaseID, prev)
			}
			issued[lr.LeaseID] = incarnation
		}
		if err := coord.Close(); err != nil {
			t.Fatal(err)
		}
	}
	grant(1, 2)
	payload, err := json.Marshal(assignEvent{Type: "assign", Unit: 2, Worker: "w3", Lease: "L0003-u2"})
	if err != nil {
		t.Fatal(err)
	}
	torn := wal.AppendFrame(nil, payload)
	f, err := os.OpenFile(filepath.Join(dir, "assignments.bin"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	cc.Resume = true
	grant(2, 1)
	grant(3, 2)
	if len(issued) != 5 {
		t.Errorf("issued %d distinct leases over three incarnations, want 5", len(issued))
	}
}

// TestLegacyAssignmentLogRefused pins the refusal of an older build's
// JSON-lines assignment log: the error names the file.
func TestLegacyAssignmentLogRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "assignments.jsonl")
	if err := os.WriteFile(legacy, []byte(`{"type":"assign","time_ms":1,"lease":"L0001-u0"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := NewCoordinator(Config{Instance: "reduced", Tier: runner.TierQuick, Dir: dir, Resume: true, Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("resume over a legacy assignment log answered %v, want a refusal naming %s", err, legacy)
	}
}
