package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
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

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/distrib"
	"propane/internal/report"
	"propane/internal/runner"
	"propane/internal/store"
	"propane/internal/wal"
)

// fingerprint reduces a result to the bit-identity criterion: the
// permeability matrix CSV and the raw run counts.
func fingerprint(rr *runner.RunResult) (string, int, int) {
	return report.MatrixCSV(rr.Result.Matrix), rr.Result.Runs, rr.Result.Unfired
}

var (
	baselineOnce    sync.Once
	baselineMatrix  string
	baselineRuns    int
	baselineUnfired int
	baselineJournal string // RecordSetDigest of the run's journal
	baselineErr     error
)

// baseline is the single-node reference run every service campaign
// must reproduce bit-identically.
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
		baselineJournal, baselineErr = journalDigest(dir)
	})
	if baselineErr != nil {
		t.Fatal(baselineErr)
	}
	return baselineMatrix, baselineRuns, baselineUnfired
}

// journalDigest is the RecordSetDigest of the record journal a
// campaign left in dir.
func journalDigest(dir string) (string, error) {
	_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		return "", err
	}
	if len(recs) == 0 {
		return "", fmt.Errorf("no records journaled under %s", dir)
	}
	return runner.RecordSetDigest(recs), nil
}

func assertMatchesBaseline(t *testing.T, label string, rr *runner.RunResult) {
	t.Helper()
	wantM, wantR, wantU := baseline(t)
	gotM, gotR, gotU := fingerprint(rr)
	if gotR != wantR || gotU != wantU {
		t.Errorf("%s: assembled counts = (%d runs, %d unfired), direct = (%d, %d)", label, gotR, gotU, wantR, wantU)
	}
	if gotM != wantM {
		t.Errorf("%s: assembled permeability matrix differs from the direct run", label)
	}
}

// startService opens a service and serves its API on an ephemeral
// listener, returning the service and its base URL.
func startService(t *testing.T, opts Options) (*Service, string, func()) {
	t.Helper()
	opts.EventInterval = 50 * time.Millisecond
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	svc, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := svc.Server()
	go srv.Serve(l)
	stop := func() {
		_ = srv.Close()
		_ = svc.Close()
	}
	return svc, "http://" + l.Addr().String(), stop
}

// startFleet points n workers at the service; the returned stop
// cancels and joins them.
func startFleet(t *testing.T, url string, n int, wo distrib.WorkerOptions) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		o := wo
		o.Name = fmt.Sprintf("%s-w%d", wo.Name, i+1)
		wg.Add(1)
		go func(o distrib.WorkerOptions) {
			defer wg.Done()
			if err := distrib.RunWorkerContext(ctx, url, o); err != nil && ctx.Err() == nil {
				t.Logf("worker %s exited: %v", o.Name, err)
			}
		}(o)
	}
	return func() { cancel(); wg.Wait() }
}

// submitHTTP posts one submission over the real API.
func submitHTTP(t *testing.T, url, tenant string, req SubmitRequest) (*http.Response, CampaignInfo) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, url+PathCampaigns, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		hreq.Header.Set(distrib.HeaderTenant, tenant)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info CampaignInfo
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
	}
	return resp, info
}

// waitState polls until the campaign reaches a wanted state (or any
// terminal one), failing on timeout.
func waitState(t *testing.T, svc *Service, id, want string, timeout time.Duration) CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		info, ok := svc.Campaign(id)
		if ok && info.State == want {
			return info
		}
		if ok && terminal(info.State) && info.State != want {
			t.Fatalf("campaign %s reached %q (error %q) while waiting for %q", id, info.State, info.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s stuck in %q waiting for %q", id, info.State, want)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTwoTenantsSharedFleet is the tentpole guarantee: two campaigns
// from different tenants multiplexed over ONE worker fleet both
// assemble bit-identically to a single-node run, and the fair-share
// ledger shows both tenants got work through.
func TestTwoTenantsSharedFleet(t *testing.T) {
	svc, url, stop := startService(t, Options{
		Dir:      t.TempDir(),
		Units:    4,
		LeaseTTL: 5 * time.Second,
	})
	defer stop()

	resp, a := submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit a: %d", resp.StatusCode)
	}
	resp, b := submitHTTP(t, url, "tenant-b", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit b: %d", resp.StatusCode)
	}

	fleetStop := startFleet(t, url, 3, distrib.WorkerOptions{
		Name: "fleet", Dir: t.TempDir(), BatchSize: 16,
		PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleetStop()

	waitState(t, svc, a.ID, StateDone, 120*time.Second)
	waitState(t, svc, b.ID, StateDone, 120*time.Second)

	rra, ok := svc.Result(a.ID)
	if !ok {
		t.Fatalf("no result for %s", a.ID)
	}
	rrb, ok := svc.Result(b.ID)
	if !ok {
		t.Fatalf("no result for %s", b.ID)
	}
	assertMatchesBaseline(t, a.ID, rra)
	assertMatchesBaseline(t, b.ID, rrb)

	st := svc.Status()
	if st.Done != 2 {
		t.Errorf("status done = %d, want 2", st.Done)
	}
	for _, tenant := range []string{"tenant-a", "tenant-b"} {
		if st.Tenants[tenant].GrantedJobs == 0 {
			t.Errorf("tenant %s was granted no jobs — fleet not shared", tenant)
		}
	}

	// The report endpoint serves the assembled markdown.
	rresp, err := http.Get(url + PathCampaigns + "/" + a.ID + "/report")
	if err != nil {
		t.Fatal(err)
	}
	defer rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK {
		t.Fatalf("report: %d", rresp.StatusCode)
	}
	data := make([]byte, 64)
	n, _ := rresp.Body.Read(data)
	if !strings.Contains(string(data[:n]), "#") {
		t.Errorf("report does not look like markdown: %q", data[:n])
	}
}

// TestEventsStream reads the SSE stream end to end: metrics frames
// while the campaign runs, one done frame carrying the final
// assembled metrics.
func TestEventsStream(t *testing.T) {
	svc, url, stop := startService(t, Options{Dir: t.TempDir(), Units: 2, LeaseTTL: 5 * time.Second})
	defer stop()
	resp, a := submitHTTP(t, url, "", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	fleetStop := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "sse", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleetStop()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url+PathCampaigns+"/"+a.ID+"/events", nil)
	sresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("events content type %q", ct)
	}

	var frames int
	var last Event
	var lastName string
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: ") {
			lastName = strings.TrimPrefix(line, "event: ")
			continue
		}
		if strings.HasPrefix(line, "data: ") {
			frames++
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				t.Fatalf("frame %d does not parse: %v", frames, err)
			}
			if lastName == "done" {
				break
			}
		}
	}
	if lastName != "done" {
		t.Fatalf("stream ended after %d frames without a done event (scan err %v)", frames, sc.Err())
	}
	if last.Campaign.State != StateDone {
		t.Errorf("done frame state = %q", last.Campaign.State)
	}
	if last.Final == nil || last.Final.ReplayedRuns+last.Final.ExecutedRuns == 0 {
		t.Errorf("done frame carries no final metrics: %+v", last.Final)
	}

	waitState(t, svc, a.ID, StateDone, time.Minute)
}

// TestUnitRPCsNeedCampaignHeader pins routing of unit-scoped worker
// RPCs: they route by X-Propane-Campaign alone. Even with a single
// active campaign holding a live lease, a heartbeat without the header
// answers 409; the same heartbeat with it renews the lease.
func TestUnitRPCsNeedCampaignHeader(t *testing.T) {
	svc, url, stop := startService(t, Options{Dir: t.TempDir(), Units: 2, LeaseTTL: 5 * time.Second})
	defer stop()
	resp, a := submitHTTP(t, url, "", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	waitState(t, svc, a.ID, StateActive, time.Minute)

	post := func(path, campaign string, req, reply any) int {
		t.Helper()
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		hreq, err := http.NewRequest(http.MethodPost, url+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", distrib.ContentTypeJSON)
		if campaign != "" {
			hreq.Header.Set(distrib.HeaderCampaign, campaign)
		}
		hresp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer hresp.Body.Close()
		if reply != nil && hresp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(hresp.Body).Decode(reply); err != nil {
				t.Fatal(err)
			}
		}
		return hresp.StatusCode
	}
	var lr distrib.LeaseResponse
	if code := post(distrib.PathLease, "", distrib.LeaseRequest{Worker: "probe"}, &lr); code != http.StatusOK || lr.Status != distrib.StatusUnit {
		t.Fatalf("lease answered %d with status %q, want a unit", code, lr.Status)
	}
	if lr.Campaign != a.ID {
		t.Fatalf("lease names campaign %q, want %q", lr.Campaign, a.ID)
	}
	hb := distrib.HeartbeatRequest{LeaseID: lr.LeaseID}
	if code := post(distrib.PathHeartbeat, "", hb, nil); code != http.StatusConflict {
		t.Errorf("heartbeat without the campaign header answered %d, want 409", code)
	}
	if code := post(distrib.PathHeartbeat, lr.Campaign, hb, nil); code != http.StatusOK {
		t.Errorf("heartbeat with the campaign header answered %d, want 200", code)
	}
}

// TestAdmissionControl drives the write controller through every
// rejection: per-tenant queue quota, per-tenant jobs quota, the delay
// threshold's growing backoff, and the stop threshold — each a 429
// with Retry-After.
func TestAdmissionControl(t *testing.T) {
	svc, url, stop := startService(t, Options{
		Dir:            t.TempDir(),
		Quotas:         Quotas{MaxQueued: 1, MaxActive: 1, MaxJobs: 1 << 30},
		MaxActiveTotal: 1,
		DelayThreshold: 2,
		StopThreshold:  3,
		LeaseTTL:       5 * time.Second,
	})
	defer stop()

	// c1 activates (no workers: it just sits active, pinning the
	// fleet-wide slot), c2 queues behind it.
	resp, c1 := submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("c1: %d", resp.StatusCode)
	}
	waitState(t, svc, c1.ID, StateActive, time.Minute)
	resp, _ = submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("c2: %d", resp.StatusCode)
	}

	// Tenant-a now holds its 1-campaign queue quota.
	resp, _ = submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After")
	}

	// Another tenant pushes depth to the delay threshold: admission
	// keeps answering 429, with backoff hints.
	resp, _ = submitHTTP(t, url, "tenant-b", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("b1: %d", resp.StatusCode)
	}
	resp, _ = submitHTTP(t, url, "tenant-c", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("delay-threshold submit: %d, want 429", resp.StatusCode)
	}

	// Jobs quota: a tenant whose plan would exceed its in-flight job
	// budget is refused outright.
	aerr := func() *AdmissionError {
		_, err := svc.Submit("tenant-tiny", SubmitRequest{Instance: "reduced", Tier: "quick"})
		var ae *AdmissionError
		if err == nil {
			t.Fatal("submit passed a saturated queue")
		}
		if ok := errors.As(err, &ae); !ok {
			t.Fatalf("expected AdmissionError, got %v", err)
		}
		return ae
	}()
	if aerr.RetryAfter <= 0 {
		t.Errorf("admission error carries no backoff: %+v", aerr)
	}

	// Direct jobs-quota check (bypasses the depth thresholds by using
	// a fresh service).
	svc2, err := Open(Options{Dir: t.TempDir(), Quotas: Quotas{MaxJobs: 1}, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	_, err = svc2.Submit("t", SubmitRequest{Instance: "reduced", Tier: "quick"})
	var ae *AdmissionError
	if !errors.As(err, &ae) || ae.Code != "tenant_jobs_quota" {
		t.Fatalf("jobs quota: got %v", err)
	}

	// Bad submissions are 400s, not 429s.
	resp, _ = submitHTTP(t, url, "", SubmitRequest{Instance: "no-such-instance"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown instance: %d, want 400", resp.StatusCode)
	}
	resp, _ = submitHTTP(t, url, "", SubmitRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty submission: %d, want 400", resp.StatusCode)
	}
}

// TestStoreMemoReuseAcrossCampaigns: an identical campaign submitted
// to a second service, whose fleet shares the worker store the first
// service's fleet populated, is served largely from that persistent
// memo store — visible as store_memo_runs in the /events stream — and
// still assembles bit-identically. (A second submission to the same
// service would be served from the first campaign's journal without
// reaching the store at all.)
func TestStoreMemoReuseAcrossCampaigns(t *testing.T) {
	workerStore, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer workerStore.Close()

	svc1, url1, stop1 := startService(t, Options{Dir: t.TempDir(), Units: 2, LeaseTTL: 5 * time.Second})
	defer stop1()
	fleet1 := startFleet(t, url1, 2, distrib.WorkerOptions{
		Name: "memo1", Dir: t.TempDir(), Memo: workerStore,
		PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})

	resp, first := submitHTTP(t, url1, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first: %d", resp.StatusCode)
	}
	waitState(t, svc1, first.ID, StateDone, 120*time.Second)
	fleet1()

	// A second service over a fresh directory, and a BRAND NEW fleet
	// (fresh scratch, so nothing replays from local unit journals),
	// serve the second, identical campaign: every reused run must come
	// from the shared persistent store.
	svc2, url2, stop2 := startService(t, Options{Dir: t.TempDir(), Units: 2, LeaseTTL: 5 * time.Second})
	defer stop2()
	fleet2 := startFleet(t, url2, 2, distrib.WorkerOptions{
		Name: "memo2", Dir: t.TempDir(), Memo: workerStore,
		PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleet2()

	resp, second := submitHTTP(t, url2, "tenant-b", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second: %d", resp.StatusCode)
	}
	waitState(t, svc2, second.ID, StateDone, 120*time.Second)

	rr1, _ := svc1.Result(first.ID)
	rr2, _ := svc2.Result(second.ID)
	assertMatchesBaseline(t, first.ID, rr1)
	assertMatchesBaseline(t, second.ID, rr2)

	// The second campaign's fleet metrics must show persistent-store
	// memo hits, via the public events endpoint.
	eresp, err := http.Get(url2 + PathCampaigns + "/" + second.ID + "/events?once=1")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	var ev Event
	sc := bufio.NewScanner(eresp.Body)
	for sc.Scan() {
		if line := sc.Text(); strings.HasPrefix(line, "data: ") {
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	if ev.Metrics == nil || ev.Metrics.StoreMemoRuns == 0 {
		t.Fatalf("second campaign shows no store memo hits: %+v", ev.Metrics)
	}
	if st := workerStore.Stats(); st.Hits == 0 {
		t.Errorf("worker store recorded no hits: %+v", st)
	}
}

// TestRepeatServedFromFinishedCampaign: a resubmission with the config
// digest of a finished campaign is served from that campaign's
// journal — no lease reaches the fleet — and reproduces its journal
// and report exactly, also after a resume. A different ε is a
// different digest and executes; a missing, torn, corrupt or foreign
// source journal degrades to execution.
func TestRepeatServedFromFinishedCampaign(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	opts := Options{Dir: dir, Store: st, Units: 2, LeaseTTL: 5 * time.Second}
	coordDir := func(id string) string { return filepath.Join(dir, "campaigns", id, "coord") }
	submit := func(svc *Service, tenant string, req SubmitRequest) CampaignInfo {
		t.Helper()
		info, err := svc.Submit(tenant, req)
		if err != nil {
			t.Fatal(err)
		}
		return waitState(t, svc, info.ID, StateDone, 120*time.Second)
	}
	wantJournal := func(id, want string) {
		t.Helper()
		got, err := journalDigest(coordDir(id))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s journals record set %s, want %s", id, got, want)
		}
	}
	wantSameReport := func(id, src string) {
		t.Helper()
		a, errA := os.ReadFile(filepath.Join(coordDir(src), "report.md"))
		b, errB := os.ReadFile(filepath.Join(coordDir(id), "report.md"))
		if err := errors.Join(errA, errB); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("served %s report.md differs from its source %s", id, src)
		}
	}
	baseline(t)
	fixed := SubmitRequest{Instance: "reduced", Tier: "quick"}

	svc, url, stop := startService(t, opts)
	fleet := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "repeat", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	first := submit(svc, "tenant-a", fixed)
	if first.Source != "" {
		t.Fatalf("first-seen campaign %s claims source %q", first.ID, first.Source)
	}
	second := submit(svc, "tenant-b", fixed)
	if second.Source != first.ID {
		t.Errorf("repeat %s has source %q, want %s", second.ID, second.Source, first.ID)
	}
	if g := svc.Status().Tenants["tenant-b"].GrantedJobs; g != 0 {
		t.Errorf("repeat's tenant was granted %d jobs, want 0", g)
	}
	rr, _ := svc.Result(second.ID)
	assertMatchesBaseline(t, second.ID, rr)
	wantJournal(first.ID, baselineJournal)
	wantJournal(second.ID, baselineJournal)
	wantSameReport(second.ID, first.ID)

	// Adaptive campaigns: ε is part of the digest. A first-seen ε
	// executes, its repeat is served through the replayed planner, and
	// another ε executes again.
	adaptive := SubmitRequest{Instance: "reduced", Tier: "quick", Adaptive: "force", CIEpsilon: 0.05}
	a1 := submit(svc, "tenant-c", adaptive)
	a2 := submit(svc, "tenant-c", adaptive)
	adaptive.CIEpsilon = 0.1
	a3 := submit(svc, "tenant-c", adaptive)
	if a1.Source != "" || a2.Source != a1.ID || a3.Source != "" {
		t.Errorf("adaptive sources = %q, %q, %q; want \"\", %s, \"\"", a1.Source, a2.Source, a3.Source, a1.ID)
	}
	d1, err := journalDigest(coordDir(a1.ID))
	if err != nil {
		t.Fatal(err)
	}
	wantJournal(a2.ID, d1)
	wantSameReport(a2.ID, a1.ID)
	fleet()
	stop()

	// The index survives a resume: with no fleet at all, a third
	// identical submission is served. Campaigns executed from here on
	// journal one frame per unit, four of them, so a corrupt middle
	// frame can be staged below.
	svc, url, stop = startService(t, Options{Dir: dir, Store: st, Units: 4, LeaseTTL: 5 * time.Second, Resume: true})
	defer stop()
	if info, _ := svc.Campaign(second.ID); info.Source != first.ID {
		t.Errorf("resumed %s has source %q, want %s", second.ID, info.Source, first.ID)
	}
	// A served repeat journals its start: resumed, it still reads a
	// start no later than its end.
	for _, info := range svc.Campaigns() {
		if info.Source != "" && !(0 < info.StartedMs && info.StartedMs <= info.DoneMs) {
			t.Errorf("resumed served repeat %s started at %d ms, done at %d ms", info.ID, info.StartedMs, info.DoneMs)
		}
	}
	third := submit(svc, "tenant-d", fixed)
	if third.Source != first.ID {
		t.Errorf("repeat after resume %s has source %q, want %s", third.ID, third.Source, first.ID)
	}
	wantJournal(third.ID, baselineJournal)

	// Without the source journal the repeat executes, and then serves
	// later repeats itself.
	if err := os.Remove(runner.JournalPath(coordDir(first.ID))); err != nil {
		t.Fatal(err)
	}
	fleet = startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "degrade", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleet()
	fourth := submit(svc, "tenant-a", fixed)
	if fourth.Source != "" {
		t.Errorf("%s claims source %q though that journal is gone", fourth.ID, fourth.Source)
	}
	rr, _ = svc.Result(fourth.ID)
	assertMatchesBaseline(t, fourth.ID, rr)
	wantJournal(fourth.ID, baselineJournal)
	if fifth := submit(svc, "tenant-a", fixed); fifth.Source != fourth.ID {
		t.Errorf("%s has source %q, want %s", fifth.ID, fifth.Source, fourth.ID)
	}

	// A torn source journal does not assemble: the repeat executes.
	path := runner.JournalPath(coordDir(fourth.ID))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	sixth := submit(svc, "tenant-a", fixed)
	if sixth.Source != "" {
		t.Errorf("%s claims source %q though that journal is torn", sixth.ID, sixth.Source)
	}
	wantJournal(sixth.ID, baselineJournal)

	// A corrupt or foreign source journal is not served either. Each
	// damaged journal belongs to the campaign the previous step
	// executed, which is the latest source.
	damage := []struct {
		what  string
		spoil func(journal []byte) []byte
	}{
		{"a flipped byte in a middle frame", func(journal []byte) []byte {
			frames := frameOffsets(t, journal)
			if len(frames) < 3 {
				t.Fatalf("source journal holds %d frames, too few for a middle one", len(frames))
			}
			journal[frames[len(frames)/2]+frameHeaderLen] ^= 0x40
			return journal
		}},
		{"a header naming another config digest", func(journal []byte) []byte {
			hdr, _, err := runner.ReadJournal(runner.JournalPath(coordDir(a1.ID)))
			if err != nil {
				t.Fatal(err)
			}
			line, err := json.Marshal(hdr)
			if err != nil {
				t.Fatal(err)
			}
			return append(append(line, '\n'), journal[bytes.IndexByte(journal, '\n')+1:]...)
		}},
	}
	src := sixth
	for _, d := range damage {
		path := runner.JournalPath(coordDir(src.ID))
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, d.spoil(journal), 0o644); err != nil {
			t.Fatal(err)
		}
		next := submit(svc, "tenant-a", fixed)
		if next.Source != "" {
			t.Errorf("%s claims source %q though that journal has %s", next.ID, next.Source, d.what)
		}
		rr, _ := svc.Result(next.ID)
		assertMatchesBaseline(t, next.ID, rr)
		wantJournal(next.ID, baselineJournal)
		src = next
	}
}

// frameHeaderLen is a journal frame's fixed prefix: length, its
// complement, CRC-32C.
const frameHeaderLen = 12

// frameOffsets returns the byte offset of every frame in a journal.
func frameOffsets(t *testing.T, journal []byte) []int {
	t.Helper()
	var offs []int
	for pos := bytes.IndexByte(journal, '\n') + 1; pos+frameHeaderLen <= len(journal); {
		offs = append(offs, pos)
		pos += frameHeaderLen + int(binary.LittleEndian.Uint32(journal[pos:]))
	}
	if len(offs) == 0 {
		t.Fatal("journal holds no frame")
	}
	return offs
}

// countedInstance registers a copy of the "reduced" instance under
// name whose Config calls are counted: Submit calls it once to size
// the campaign, and every golden pass once more.
func countedInstance(t *testing.T, name string) *atomic.Int64 {
	t.Helper()
	reduced, err := runner.Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	calls := new(atomic.Int64)
	if err := runner.Register(runner.Definition{Name: name, Config: func(tier runner.Tier) (campaign.Config, error) {
		calls.Add(1)
		return reduced.Config(tier)
	}}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runner.Unregister(name) })
	return calls
}

// TestServedRepeatRunsNoGoldenPass: an in-process repeat takes its
// config digest from the service's memo, so it runs no golden pass,
// and shares its source's result instead of reassembling one. The memo
// never crosses a process: after a resume the first repeat prepares
// again, and the next one shares that repeat's result.
func TestServedRepeatRunsNoGoldenPass(t *testing.T) {
	calls := countedInstance(t, "reduced-counted")
	dir := t.TempDir()
	opts := Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second}
	req := SubmitRequest{Instance: "reduced-counted", Tier: "quick"}
	// submit runs one campaign to completion and returns its info and
	// the Config calls it made.
	submit := func(svc *Service) (CampaignInfo, int64) {
		t.Helper()
		before := calls.Load()
		info, err := svc.Submit("tenant-a", req)
		if err != nil {
			t.Fatal(err)
		}
		info = waitState(t, svc, info.ID, StateDone, 120*time.Second)
		return info, calls.Load() - before
	}
	result := func(svc *Service, id string) *runner.RunResult {
		t.Helper()
		rr, ok := svc.Result(id)
		if !ok {
			t.Fatalf("%s has no result", id)
		}
		assertMatchesBaseline(t, id, rr)
		return rr
	}
	wantCounts := func(svc *Service, prepares, served int) {
		t.Helper()
		if st := svc.Status(); st.Prepares != prepares || st.Served != served {
			t.Errorf("status counts %d prepares and %d served repeats, want %d and %d", st.Prepares, st.Served, prepares, served)
		}
	}

	svc, url, stop := startService(t, opts)
	fleet := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "counted", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	first, _ := submit(svc)
	wantCounts(svc, 1, 0)
	repeat, n := submit(svc)
	if repeat.Source != first.ID {
		t.Fatalf("repeat %s has source %q, want %s", repeat.ID, repeat.Source, first.ID)
	}
	if n != 1 {
		t.Errorf("in-process repeat called Config %d times, want 1 (submission only, no golden pass)", n)
	}
	wantCounts(svc, 1, 1)
	if a, b := result(svc, first.ID), result(svc, repeat.ID); a.Result != b.Result {
		t.Error("in-process repeat reassembled its result instead of sharing its source's")
	} else if b.Dir == a.Dir {
		t.Errorf("repeat's result names its source's directory %s", a.Dir)
	}
	fleet()
	stop()

	svc, _, stop = startService(t, Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second, Resume: true})
	defer stop()
	resumed, n := submit(svc)
	if n != 2 {
		t.Errorf("first repeat after resume called Config %d times, want 2 (submission and golden pass)", n)
	}
	wantCounts(svc, 1, 1)
	again, n := submit(svc)
	if n != 1 {
		t.Errorf("second repeat after resume called Config %d times, want 1", n)
	}
	wantCounts(svc, 1, 2)
	for _, info := range []CampaignInfo{resumed, again} {
		if info.Source != first.ID {
			t.Errorf("repeat %s has source %q, want %s", info.ID, info.Source, first.ID)
		}
	}
	if result(svc, resumed.ID).Result != result(svc, again.ID).Result {
		t.Error("second repeat after resume reassembled instead of sharing the first repeat's result")
	}
}

// TestServedRepeatKilledMidServe: a served repeat journals activate
// before it copies anything, so a service killed between that line and
// done resumes the repeat like any in-flight campaign — its coordinator
// resumes from whatever the copy left — and it completes.
func TestServedRepeatKilledMidServe(t *testing.T) {
	dir := t.TempDir()
	svc, url, stop := startService(t, Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second})
	fleet := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "midserve", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	req := SubmitRequest{Instance: "reduced", Tier: "quick"}
	var ids []string
	for range 2 {
		info, err := svc.Submit("tenant-a", req)
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, svc, info.ID, StateDone, 120*time.Second)
		ids = append(ids, info.ID)
	}
	fleet()
	stop()

	// Drop the repeat's done event: the process died mid-serve.
	path := filepath.Join(dir, journalName)
	var kept [][]byte
	if _, err := wal.Load(path, journalFormat, nil, func(payload []byte) error {
		var ev journalEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		if !(ev.Op == "done" && ev.ID == ids[1]) {
			kept = append(kept, bytes.Clone(payload))
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open(path, journalFormat, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range kept {
		if err := log.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	svc, _, stop = startService(t, Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second, Resume: true})
	defer stop()
	waitState(t, svc, ids[1], StateDone, 120*time.Second)
	rr, _ := svc.Result(ids[1])
	assertMatchesBaseline(t, ids[1], rr)
	if got, err := journalDigest(filepath.Join(dir, "campaigns", ids[1], "coord")); err != nil || got != baselineJournal {
		t.Errorf("resumed repeat journals record set %s (%v), want %s", got, err, baselineJournal)
	}
}

// TestConcurrentRepeats serves six simultaneous repeats of one
// finished campaign, in process and again after a resume, when the
// first of them assembles the source's result once for all six.
func TestConcurrentRepeats(t *testing.T) {
	const n = 6
	dir := t.TempDir()
	coordDir := func(id string) string { return filepath.Join(dir, "campaigns", id, "coord") }
	opts := Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second, MaxActiveTotal: n}
	req := SubmitRequest{Instance: "reduced", Tier: "quick"}

	svc, url, stop := startService(t, opts)
	fleet := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "concurrent", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	src, err := svc.Submit("tenant-src", req)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, svc, src.ID, StateDone, 120*time.Second)
	fleet()
	report, err := os.ReadFile(filepath.Join(coordDir(src.ID), "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	// repeats submits n copies at once, one tenant each so all n
	// activate together, and checks each was served from src.
	repeats := func(svc *Service) []*runner.RunResult {
		t.Helper()
		infos := make([]CampaignInfo, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range n {
			wg.Add(1)
			go func() {
				defer wg.Done()
				infos[i], errs[i] = svc.Submit(fmt.Sprintf("tenant-%d", i), req)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			t.Fatal(err)
		}
		results := make([]*runner.RunResult, n)
		for i, info := range infos {
			info = waitState(t, svc, info.ID, StateDone, 120*time.Second)
			if info.Source != src.ID {
				t.Errorf("repeat %s has source %q, want %s", info.ID, info.Source, src.ID)
			}
			got, err := os.ReadFile(filepath.Join(coordDir(info.ID), "report.md"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, report) {
				t.Errorf("repeat %s report.md differs from its source %s", info.ID, src.ID)
			}
			results[i], _ = svc.Result(info.ID)
			assertMatchesBaseline(t, info.ID, results[i])
		}
		return results
	}
	repeats(svc)
	if st := svc.Status(); st.Prepares != 1 || st.Served != n {
		t.Errorf("status counts %d prepares and %d served repeats, want 1 and %d", st.Prepares, st.Served, n)
	}
	stop()

	svc, _, stop = startService(t, Options{Dir: dir, Units: 2, LeaseTTL: 5 * time.Second, MaxActiveTotal: n, Resume: true})
	defer stop()
	results := repeats(svc)
	// The resumed process knows no digest: the n first activations
	// share one golden pass.
	if st := svc.Status(); st.Prepares != 1 || st.Served != n {
		t.Errorf("after resume, status counts %d prepares and %d served repeats, want 1 and %d", st.Prepares, st.Served, n)
	}
	for _, rr := range results[1:] {
		if rr.Result != results[0].Result {
			t.Fatal("concurrent repeats after resume assembled their source's result more than once")
		}
	}
}

// TestSynthDocumentSubmission submits an inline topology document:
// the service registers it under a content-derived name, ships the
// document to workers inside each work unit, and the campaign
// completes. A byte-identical resubmission resolves to the same
// instance.
func TestSynthDocumentSubmission(t *testing.T) {
	doc, err := os.ReadFile("../../examples/synth/arrestor.yaml")
	if err != nil {
		t.Skipf("no example document: %v", err)
	}
	svc, url, stop := startService(t, Options{Dir: t.TempDir(), Units: 2, LeaseTTL: 5 * time.Second})
	defer stop()
	fleetStop := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "doc", Dir: t.TempDir(), PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleetStop()

	resp, a := submitHTTP(t, url, "tenant-a", SubmitRequest{Document: string(doc), Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("document submit: %d", resp.StatusCode)
	}
	if !strings.HasPrefix(a.Instance, "synth-doc-") {
		t.Fatalf("document registered as %q, want a content-derived synth-doc name", a.Instance)
	}
	waitState(t, svc, a.ID, StateDone, 180*time.Second)

	resp, b := submitHTTP(t, url, "tenant-b", SubmitRequest{Document: string(doc), Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d", resp.StatusCode)
	}
	if b.Instance != a.Instance {
		t.Errorf("byte-identical documents resolved to %q and %q", a.Instance, b.Instance)
	}
	waitState(t, svc, b.ID, StateDone, 180*time.Second)
}

// TestCrashResumeSoak is the service-level chaos drill: the service
// crashes at pre-enqueue-ack with a submission journaled but
// unacknowledged; the resumed service owns that campaign and runs it;
// a coordinator crash (pre-lease-grant) strands one campaign
// mid-flight; a second resume converges everything — every campaign
// bit-identical — while a worker-side store crash (mid-store-put)
// degrades the memo path without touching correctness.
func TestCrashResumeSoak(t *testing.T) {
	dir := t.TempDir()
	cps := chaos.NewCrashpoints(nil)
	scratch := t.TempDir()
	storeDir := t.TempDir()

	// Incarnation 1: first submission acknowledged, second journaled
	// but the ack dies at the crash point.
	cps.Arm(CrashPreEnqueueAck, 2)
	svc1, url1, stop1 := startService(t, Options{Dir: dir, Units: 4, LeaseTTL: 3 * time.Second, Crash: cps})
	resp, c1 := submitHTTP(t, url1, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("c1 (%s): %d", c1.ID, resp.StatusCode)
	}
	body, _ := json.Marshal(SubmitRequest{Instance: "reduced", Tier: "quick"})
	hreq, _ := http.NewRequest(http.MethodPost, url1+PathCampaigns, bytes.NewReader(body))
	hreq.Header.Set(distrib.HeaderTenant, "tenant-b")
	if bresp, err := http.DefaultClient.Do(hreq); err == nil {
		bresp.Body.Close()
		t.Fatalf("second submit was acknowledged (%d) despite the armed crash point", bresp.StatusCode)
	}
	if fired := cps.Fired(); len(fired) != 1 || fired[0] != CrashPreEnqueueAck {
		t.Fatalf("crash point did not fire: %v", fired)
	}
	// The dead service answers 503 on campaign endpoints and flags
	// itself in /status (which stays observable for operators).
	if gresp, err := http.Get(url1 + PathCampaigns); err == nil {
		if gresp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("crashed service answered %d on %s", gresp.StatusCode, PathCampaigns)
		}
		gresp.Body.Close()
	}
	if gresp, err := http.Get(url1 + PathStatus); err == nil {
		var st Status
		if jerr := json.NewDecoder(gresp.Body).Decode(&st); jerr != nil || !st.Crashed {
			t.Fatalf("crashed service /status = %+v (err %v)", st, jerr)
		}
		gresp.Body.Close()
	}
	_ = svc1 // closed via stop1
	stop1()

	// Incarnation 2: resume recovers BOTH campaigns (the second was
	// durable before the ack died). A coordinator crash point strands
	// whichever campaign grants the 6th lease; a store crash point
	// degrades the workers' memo persistence mid-campaign.
	cps.Arm(distrib.CrashPreLeaseGrant, 6)
	cps.Arm(store.CrashMidStorePut, 10)
	ws, err := store.Open(storeDir, store.Options{Crash: cps, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	svc2, url2, stop2 := startService(t, Options{Dir: dir, Resume: true, Units: 4, LeaseTTL: 3 * time.Second, Crash: cps})
	if got := len(svc2.Campaigns()); got != 2 {
		t.Fatalf("resumed service sees %d campaigns, want 2 (unacked submission lost?)", got)
	}
	fleet2 := startFleet(t, url2, 3, distrib.WorkerOptions{
		Name: "soak2", Dir: scratch, Memo: ws,
		PollInterval: 50 * time.Millisecond, MaxErrors: 4, Logf: t.Logf,
	})

	// Wait until one campaign finishes, or both stall on the crashed
	// coordinator; the armed grant crash leaves at most one stranded.
	deadline := time.Now().Add(120 * time.Second)
	for {
		done := 0
		for _, ci := range svc2.Campaigns() {
			if ci.State == StateDone {
				done++
			}
		}
		crashed := false
		for _, l := range cps.Fired() {
			if l == distrib.CrashPreLeaseGrant {
				crashed = true
			}
		}
		if done == 2 || (done >= 1 && crashed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("soak stalled: campaigns %+v, fired %v", svc2.Campaigns(), cps.Fired())
		}
		time.Sleep(50 * time.Millisecond)
	}
	fleet2()
	ws.Close()
	stop2()

	// Incarnation 3: resume again; whatever was stranded re-queues
	// and a fresh fleet (and a reopened store) finishes it.
	ws3, err := store.Open(storeDir, store.Options{Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer ws3.Close()
	svc3, url3, stop3 := startService(t, Options{Dir: dir, Resume: true, Units: 4, LeaseTTL: 3 * time.Second})
	defer stop3()
	fleet3 := startFleet(t, url3, 3, distrib.WorkerOptions{
		Name: "soak3", Dir: scratch, Memo: ws3,
		PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleet3()

	var ids []string
	for _, ci := range svc3.Campaigns() {
		ids = append(ids, ci.ID)
	}
	for _, id := range ids {
		waitState(t, svc3, id, StateDone, 180*time.Second)
		rr, ok := svc3.Result(id)
		if !ok {
			// Completed in incarnation 2; assembled artifacts live on
			// disk — re-assembly is not retried for already-done
			// campaigns, which keep their journaled state.
			continue
		}
		assertMatchesBaseline(t, id, rr)
	}
	if st := svc3.Status(); st.Done != 2 {
		t.Errorf("final state: %+v", st)
	}
}

// TestAdaptiveSubmission submits an adaptive campaign over the API:
// the adaptive spec survives the journal, reaches the coordinator,
// and the assembled result is bit-identical to a single-node adaptive
// run. A bad mode is the submitter's error (400), not a queue entry.
func TestAdaptiveSubmission(t *testing.T) {
	svc, url, stop := startService(t, Options{
		Dir:      t.TempDir(),
		LeaseTTL: 5 * time.Second,
	})
	defer stop()

	resp, _ := submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick", Adaptive: "sometimes"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad adaptive mode: %d, want 400", resp.StatusCode)
	}

	resp, a := submitHTTP(t, url, "tenant-a", SubmitRequest{Instance: "reduced", Tier: "quick", Adaptive: "force"})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if a.Adaptive != "force" {
		t.Errorf("campaign info advertises adaptive %q, want force", a.Adaptive)
	}

	fleetStop := startFleet(t, url, 2, distrib.WorkerOptions{
		Name: "afleet", Dir: t.TempDir(), BatchSize: 8,
		PollInterval: 50 * time.Millisecond, Logf: t.Logf,
	})
	defer fleetStop()
	waitState(t, svc, a.ID, StateDone, 120*time.Second)

	rr, ok := svc.Result(a.ID)
	if !ok {
		t.Fatalf("no result for %s", a.ID)
	}
	if rr.Result.Adaptive == nil {
		t.Fatal("service adaptive campaign carries no AdaptiveStats")
	}

	dir, err := os.MkdirTemp("", "propane-adaptive-svc-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	direct, err := runner.RunInstance("reduced", runner.TierQuick, runner.Options{
		Dir: dir, Adaptive: campaign.AdaptiveForce,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantM, wantR, wantU := fingerprint(direct)
	gotM, gotR, gotU := fingerprint(rr)
	if gotR != wantR || gotU != wantU {
		t.Errorf("adaptive counts = (%d runs, %d unfired), single-node = (%d, %d)", gotR, gotU, wantR, wantU)
	}
	if gotM != wantM {
		t.Error("service adaptive matrix differs from the single-node adaptive run")
	}
}

// TestServiceLogTornTail resumes a service over a log whose last frame
// a kill tore, submits again, and resumes once more: the torn frame is
// cut before the next append, so both campaigns survive and no
// campaign ID is issued twice.
func TestServiceLogTornTail(t *testing.T) {
	dir := t.TempDir()
	open := func(resume bool) *Service {
		t.Helper()
		svc, err := Open(Options{Dir: dir, Units: 2, Resume: resume, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	req := SubmitRequest{Instance: "reduced", Tier: "quick"}
	svc := open(false)
	c1, err := svc.Submit("tenant-a", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	payload, err := json.Marshal(journalEvent{Op: "submit", ID: "c0009", Tenant: "tenant-a", Instance: "reduced", Tier: "quick"})
	if err != nil {
		t.Fatal(err)
	}
	frame := wal.AppendFrame(nil, payload)
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(frame[:len(frame)-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	svc = open(true)
	c2, err := svc.Submit("tenant-b", req)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if c2.ID == c1.ID {
		t.Fatalf("campaign ID %s issued twice", c1.ID)
	}
	svc = open(true)
	defer svc.Close()
	var ids []string
	for _, ci := range svc.Campaigns() {
		ids = append(ids, ci.ID)
	}
	if len(ids) != 2 || ids[0] != c1.ID || ids[1] != c2.ID {
		t.Fatalf("resumed campaigns %v, want [%s %s]", ids, c1.ID, c2.ID)
	}
}

// TestLegacyServiceLogRefused pins the refusal of an older build's
// JSON-lines service log: the error names the file.
func TestLegacyServiceLogRefused(t *testing.T) {
	dir := t.TempDir()
	legacy := filepath.Join(dir, "service.jsonl")
	if err := os.WriteFile(legacy, []byte(`{"op":"submit","id":"c0001","tenant":"a","instance":"reduced","tier":"quick"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(Options{Dir: dir, Resume: true, Logf: t.Logf})
	if err == nil || !strings.Contains(err.Error(), legacy) {
		t.Fatalf("resume over a legacy service log answered %v, want a refusal naming %s", err, legacy)
	}
}
