package distrib

// Chaos-harness tests: the fabric's own SWIFI campaign. The
// internal/chaos transport injects seeded faults into every worker ↔
// coordinator RPC while a coordinator crash point kills and resumes
// the coordinator mid-campaign; the acceptance oracle is the same as
// ever — the assembled result must be bit-identical to a single-node
// run.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"propane/internal/chaos"
	"propane/internal/runner"
)

// logCapture collects Logf lines for assertions about degraded-mode
// transitions.
type logCapture struct {
	t  *testing.T
	mu sync.Mutex
	ln []string
}

func (l *logCapture) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	l.mu.Lock()
	l.ln = append(l.ln, line)
	l.mu.Unlock()
	if l.t != nil {
		l.t.Log(line)
	}
}

func (l *logCapture) contains(sub string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.ln {
		if strings.Contains(line, sub) {
			return true
		}
	}
	return false
}

// TestChaosSoakBitIdentical is the capstone: a 3-worker loopback
// fleet under sustained seeded faults on every RPC class (rate 0.25:
// drops, dropped responses, 5xx, duplicates, truncations,
// corruptions, delays), plus a deterministic coordinator crash
// mid-batch-append followed by a resume from the journals. The
// campaign must complete with no worker giving up, and assemble
// bit-identical to the single-node baseline.
func TestChaosSoakBitIdentical(t *testing.T) {
	dir := t.TempDir()
	logs := &logCapture{t: t}

	crashed := make(chan struct{})
	var crashOnce sync.Once
	crash := chaos.NewCrashpoints(func(label string) {
		crashOnce.Do(func() { close(crashed) })
	})
	crash.Arm(CrashMidBatchAppend, 3) // die inside the third journaled batch

	cc := Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    4,
		LeaseTTL: 2 * time.Second,
		Crash:    crash,
		Logf:     logs.logf,
	}
	coord1, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}

	// One long-lived listener whose handler is swappable: the chaos
	// "kill" leaves the address up (503ing) while the supervisor
	// builds the resumed coordinator, exactly like a process manager
	// restarting a crashed daemon behind a stable endpoint.
	var handler atomic.Value
	handler.Store(coord1.Handler())
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()
	url := "http://" + l.Addr().String()

	// Supervisor: when the crash point fires, close the dead
	// coordinator's files and resume a new one from the journals.
	var coord2 *Coordinator
	restartErr := make(chan error, 1)
	go func() {
		<-crashed
		_ = coord1.Close()
		cc2 := cc
		cc2.Resume = true
		cc2.Crash = nil
		c2, err := NewCoordinator(cc2)
		if err != nil {
			restartErr <- err
			return
		}
		coord2 = c2
		handler.Store(c2.Handler())
		logs.logf("soak: coordinator resumed from journals")
		restartErr <- nil
	}()

	const fleet = 3
	transports := make([]*chaos.Transport, fleet)
	workerErrs := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		name := fmt.Sprintf("soak-w%d", i+1)
		spec := chaos.Spec{
			Seed:     chaos.DeriveSeed(42, name),
			Rate:     0.25,
			MaxDelay: 2 * time.Millisecond,
		}
		tr := chaos.NewTransport(spec, nil, logs.logf)
		transports[i] = tr
		wo := WorkerOptions{
			Name:         name,
			Dir:          filepath.Join(dir, "scratch"),
			PollInterval: 50 * time.Millisecond,
			BatchSize:    4,
			MaxErrors:    20,
			Logf:         logs.logf,
			transport:    tr,
		}
		go func() { workerErrs <- RunWorker(url, wo) }()
	}

	deadline := time.After(120 * time.Second)
	select {
	case err := <-restartErr:
		if err != nil {
			t.Fatalf("resuming coordinator after chaos crash: %v", err)
		}
	case <-deadline:
		t.Fatal("armed crash point never fired — the soak exercised no coordinator crash")
	}
	for i := 0; i < fleet; i++ {
		select {
		case err := <-workerErrs:
			if err != nil {
				t.Fatalf("worker gave up under chaos: %v", err)
			}
		case <-deadline:
			t.Fatal("fleet did not finish the chaos soak in time")
		}
	}

	if fired := crash.Fired(); len(fired) == 0 {
		t.Fatal("no coordinator crash point fired")
	} else {
		t.Logf("crash points fired: %v (hits %v)", fired, crash.Hits())
	}
	injected := 0
	for i, tr := range transports {
		injected += tr.Injected()
		t.Logf("worker %d chaos: %s", i+1, tr.Summary())
	}
	if injected == 0 {
		t.Fatal("chaos transports injected no faults — the soak proved nothing")
	}

	select {
	case <-coord2.Done():
	default:
		t.Fatal("workers exited but resumed coordinator reports the campaign incomplete")
	}
	rr, err := coord2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
}

// postRaw sends one hardened-protocol POST by hand, returning the
// response and its body.
func postRaw(t *testing.T, url, contentType string, body []byte, digest string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	if digest != "" {
		req.Header.Set(HeaderBodyDigest, digest)
		req.Header.Set(HeaderIdempotencyKey, digest)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func bodyDigest(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// leaseAndCollect leases one unit by hand and runs its jobs through
// the local runner, collecting (without streaming) every record the
// unit owes the coordinator.
func leaseAndCollect(t *testing.T, url, scratch string) (LeaseResponse, []runner.Record) {
	t.Helper()
	w := &worker{
		base:   url,
		opts:   WorkerOptions{Name: "manual", Dir: scratch, Logf: t.Logf},
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
		t.Fatalf("lease status %q, want %q", lr.Status, StatusUnit)
	}
	u := lr.Unit
	def, err := runner.Lookup(u.Instance)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(runner.Tier(u.Tier))
	if err != nil {
		t.Fatal(err)
	}
	var recs []runner.Record
	_, err = runner.Run(cfg, runner.Options{
		Name:       u.Instance,
		Tier:       runner.Tier(u.Tier),
		Dir:        w.scratchDir(u),
		Workers:    1,
		SkipReport: true,
		Jobs:       u.JobList,
		OnRecord: func(rec runner.Record, replayed bool) error {
			recs = append(recs, rec)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("unit produced no records")
	}
	return lr, recs
}

// TestMidBatchAppendTornState pins the mid-batch-append crash point
// deterministically: armed at the first ingested batch, it journals a
// strict prefix of a multi-record upload and kills the coordinator
// before any reply. A coordinator resumed from the journal then takes
// the same records back as duplicates for the prefix and fresh records
// for the rest, and assembles bit-identical to the single-node run.
func TestMidBatchAppendTornState(t *testing.T) {
	dir := t.TempDir()
	crash := chaos.NewCrashpoints(nil)
	crash.Arm(CrashMidBatchAppend, 1)
	cc := Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    1, // one unit spans the campaign: the upload is the whole job space
		Crash:    crash,
		Logf:     t.Logf,
	}
	coord1, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	url1, srv1 := serveCoordinator(t, coord1)
	defer srv1.Close()

	lr, recs := leaseAndCollect(t, url1, filepath.Join(dir, "scratch"))
	if len(recs) < 2 {
		t.Fatalf("unit holds %d records; a torn batch needs at least 2", len(recs))
	}
	w := &worker{base: url1, opts: WorkerOptions{Name: "torn", Logf: t.Logf}, ctx: t.Context(),
		client: &http.Client{Timeout: 10 * time.Second}}
	var br BatchResponse
	err = w.send(PathRecords, ContentTypeBinary, recordFrame(t, lr.LeaseID, recs), &br)
	var se *httpStatusError
	if err == nil || errors.As(err, &se) {
		t.Fatalf("torn upload answered (%v) — the crash must leave the request without a reply", err)
	}
	if fired := crash.Fired(); len(fired) != 1 || fired[0] != CrashMidBatchAppend {
		t.Fatalf("crash points fired %v, want [%s]", fired, CrashMidBatchAppend)
	}
	if err := coord1.Close(); err != nil {
		t.Fatal(err)
	}

	_, journaled, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(journaled) == 0 || len(journaled) >= len(recs) {
		t.Fatalf("torn batch journaled %d of %d records, want a non-empty strict prefix", len(journaled), len(recs))
	}
	for i, rec := range journaled {
		if !runner.RecordsEqual(rec, recs[i]) {
			t.Fatalf("journaled record %d (job %d) is not the upload's record %d (job %d)", i, rec.Job, i, recs[i].Job)
		}
	}

	cc.Resume = true
	cc.Crash = nil
	coord2, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	defer coord2.Close()
	url2, srv2 := serveCoordinator(t, coord2)
	defer srv2.Close()
	w.base = url2
	var lr2 LeaseResponse
	if err := w.post(PathLease, LeaseRequest{Worker: w.opts.Name}, &lr2); err != nil {
		t.Fatal(err)
	}
	if lr2.Status != StatusUnit {
		t.Fatalf("resumed lease status %q, want %q", lr2.Status, StatusUnit)
	}
	if err := w.send(PathRecords, ContentTypeBinary, recordFrame(t, lr2.LeaseID, recs), &br); err != nil {
		t.Fatalf("re-upload to the resumed coordinator: %v", err)
	}
	if br.Duplicates != len(journaled) || br.Accepted != len(recs)-len(journaled) {
		t.Errorf("re-upload accepted %d and found %d duplicates, want %d and %d",
			br.Accepted, br.Duplicates, len(recs)-len(journaled), len(journaled))
	}
	select {
	case <-coord2.Done():
	default:
		t.Fatal("re-upload covered the job space but the resumed coordinator reports the campaign incomplete")
	}
	rr, err := coord2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)
}

// TestDuplicateDeliveryIdempotent proves the /records and /complete
// idempotency the chaos duplicate/drop-response faults rely on: a
// byte-identical redelivery replays the stored response verbatim
// (marked by HeaderIdempotentReplay) and changes nothing — no record
// is double-counted, no journal grows.
func TestDuplicateDeliveryIdempotent(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	lr, recs := leaseAndCollect(t, url, filepath.Join(dir, "scratch"))

	// First record delivered twice, byte-identically.
	body := recordFrame(t, lr.LeaseID, recs[:1])
	resp1, data1 := postRaw(t, url+PathRecords, ContentTypeBinary, body, bodyDigest(body))
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first delivery: %d %s", resp1.StatusCode, data1)
	}
	if resp1.Header.Get(HeaderIdempotentReplay) != "" {
		t.Error("first delivery claims to be a replay")
	}
	resp2, data2 := postRaw(t, url+PathRecords, ContentTypeBinary, body, bodyDigest(body))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicated delivery: %d %s", resp2.StatusCode, data2)
	}
	if resp2.Header.Get(HeaderIdempotentReplay) != "1" {
		t.Error("duplicated delivery was not served from the idempotency store")
	}
	if !bytes.Equal(data1, data2) {
		t.Errorf("replayed response differs:\n first: %s\nsecond: %s", data1, data2)
	}
	var br BatchResponse
	if err := json.Unmarshal(data2, &br); err != nil {
		t.Fatal(err)
	}
	if br.Accepted != 1 {
		t.Errorf("replayed response accepted=%d, want the original 1", br.Accepted)
	}
	if got := coord.Metrics().ReceivedRuns; got != 1 {
		t.Errorf("coordinator counted %d received runs after a duplicated delivery of one record, want 1", got)
	}

	// The rest of the unit, then /complete twice.
	body = recordFrame(t, lr.LeaseID, recs[1:])
	if resp, data := postRaw(t, url+PathRecords, ContentTypeBinary, body, bodyDigest(body)); resp.StatusCode != http.StatusOK {
		t.Fatalf("remainder delivery: %d %s", resp.StatusCode, data)
	}
	cbody, err := json.Marshal(CompleteRequest{LeaseID: lr.LeaseID, Runs: len(recs), Digest: runner.RecordSetDigest(recs)})
	if err != nil {
		t.Fatal(err)
	}
	cresp1, cdata1 := postRaw(t, url+PathComplete, ContentTypeJSON, cbody, bodyDigest(cbody))
	if cresp1.StatusCode != http.StatusOK {
		t.Fatalf("complete: %d %s", cresp1.StatusCode, cdata1)
	}
	cresp2, cdata2 := postRaw(t, url+PathComplete, ContentTypeJSON, cbody, bodyDigest(cbody))
	if cresp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicated complete: %d %s", cresp2.StatusCode, cdata2)
	}
	if cresp2.Header.Get(HeaderIdempotentReplay) != "1" {
		t.Error("duplicated complete was not served from the idempotency store")
	}
	if !bytes.Equal(cdata1, cdata2) {
		t.Errorf("replayed complete differs:\n first: %s\nsecond: %s", cdata1, cdata2)
	}
	if got := coord.Metrics().ReceivedRuns; got != len(recs) {
		t.Errorf("coordinator counted %d received runs, want %d", got, len(recs))
	}
}

// TestWireDamagedBodyRejected proves the digest gate: a body that
// does not match its digest header — what the chaos truncate/corrupt
// faults produce — is rejected with the retryable CodeBodyDigest
// before any handler state changes.
func TestWireDamagedBodyRejected(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()

	lr, recs := leaseAndCollect(t, url, filepath.Join(dir, "scratch"))
	// A JSON body, intact and digested, is refused unread: /v1/records
	// takes only binary frames.
	jbody, err := json.Marshal(RecordBatch{LeaseID: lr.LeaseID, Records: recs[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postRaw(t, url+PathRecords, ContentTypeJSON, jbody, bodyDigest(jbody)); resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("JSON record batch answered %d %s, want 415", resp.StatusCode, data)
	}
	if got := coord.Metrics().ReceivedRuns; got != 0 {
		t.Errorf("JSON record batch journaled %d records", got)
	}

	body := recordFrame(t, lr.LeaseID, recs[:1])
	// The digest of the intact body, sent with a truncated copy: the
	// exact signature of in-flight damage.
	resp, data := postRaw(t, url+PathRecords, ContentTypeBinary, body[:len(body)-2], bodyDigest(body))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("damaged body answered %d %s, want 400", resp.StatusCode, data)
	}
	var er errorResponse
	if err := json.Unmarshal(data, &er); err != nil {
		t.Fatalf("error reply is not JSON: %s", data)
	}
	if er.Code != CodeBodyDigest {
		t.Errorf("error code %q, want %q", er.Code, CodeBodyDigest)
	}
	if got := coord.Metrics().ReceivedRuns; got != 0 {
		t.Errorf("damaged delivery journaled %d records", got)
	}
	// The client must classify this as wire damage worth retrying,
	// not a fatal protocol error.
	statusErr := &httpStatusError{status: resp.StatusCode, code: er.Code, msg: er.Error}
	if !retryableError(statusErr) {
		t.Error("digest-mismatch rejection classified as non-retryable")
	}
	if fatalStatus(statusErr) {
		t.Error("digest-mismatch rejection classified as fatal")
	}
	// The intact copy must then succeed — same lease, same key
	// semantics, nothing poisoned by the failed attempt.
	resp, data = postRaw(t, url+PathRecords, ContentTypeBinary, body, bodyDigest(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("intact retry answered %d %s", resp.StatusCode, data)
	}
}

// TestWorkerDegradesAndRecovers takes the coordinator away mid-upload:
// the worker must keep its records safe in the local journal, degrade
// to patient retries, resume the upload when the coordinator returns,
// and finish the campaign bit-identical — graceful degradation, not
// abort.
func TestWorkerDegradesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	logs := &logCapture{t: t}
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Units:    2,
		LeaseTTL: 30 * time.Second, // outlive the outage: same lease on reconnect
		Logf:     logs.logf,
	})
	if err != nil {
		t.Fatal(err)
	}

	// The outage: after the first record chunk of a unit's bulk upload
	// lands, every request 503s for a fixed window mid-upload.
	var down atomic.Bool
	var batches atomic.Int32
	inner := coord.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			httpError(w, http.StatusServiceUnavailable, "coordinator offline (test outage)")
			return
		}
		inner.ServeHTTP(w, r)
		if r.URL.Path == PathRecords && batches.Add(1) == 1 {
			down.Store(true)
			time.AfterFunc(1500*time.Millisecond, func() { down.Store(false) })
			logs.logf("outage: coordinator offline for 1.5s")
		}
	})
	srv := NewServer(h)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	defer srv.Close()

	err = RunWorker("http://"+l.Addr().String(), WorkerOptions{
		Name:         "degrader",
		Dir:          filepath.Join(dir, "scratch"),
		PollInterval: 50 * time.Millisecond,
		BatchSize:    2,
		Logf:         logs.logf,
	})
	if err != nil {
		t.Fatalf("worker gave up during the outage: %v", err)
	}
	if !logs.contains("degrading") {
		t.Error("worker never entered degraded mode — the outage was not exercised")
	}
	if !logs.contains("reachable again") {
		t.Error("worker never recovered from degraded mode")
	}

	select {
	case <-coord.Done():
	default:
		t.Fatal("worker exited but the campaign is incomplete")
	}
	rr, err := coord.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesBaseline(t, rr)

	// The local journal is the only durability mechanism — protocol v2
	// removed the delivery spool, so none may reappear.
	spools := 0
	filepath.WalkDir(filepath.Join(dir, "scratch"), func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && d.Name() == "spool.jsonl" {
			spools++
		}
		return nil
	})
	if spools != 0 {
		t.Errorf("%d spool files found after a completed campaign — the local journal is the durability story", spools)
	}
}
