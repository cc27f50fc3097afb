package distrib

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"propane/internal/backoff"
	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/runner"
)

// WorkerOptions parameterises one worker agent.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator. It must be
	// unique within the fleet and stable across this worker's
	// restarts (a restarted worker with the same name and Dir resumes
	// its unit from the local journal instead of re-simulating). Empty
	// selects hostname-pid.
	Name string
	// Dir is the worker's scratch root: each work unit runs in its
	// own subdirectory with the full local journal/checkpoint
	// machinery. Required.
	Dir string
	// Workers is the local campaign parallelism per unit (0 lets the
	// campaign default apply).
	Workers int
	// PollInterval paces lease retries when the coordinator is
	// unreachable, and is the fallback pause after a StatusWait reply
	// carrying no RetryMs hint. A reachable coordinator long-polls
	// lease requests itself and hints an immediate retry, so this
	// interval only governs while the coordinator is down. <= 0
	// selects 1 s.
	PollInterval time.Duration
	// BatchSize is the record-upload chunk size: a completed unit's
	// record set uploads in chunks of this many records (each chunk
	// renews the lease). <= 0 selects 64.
	BatchSize int
	// MaxErrors bounds consecutive failed coordinator round-trips
	// before the worker gives up. While a unit is uploading the worker
	// is more patient — an unreachable coordinator flips it into
	// degraded mode with the full MaxErrors ladder per chunk before it
	// abandons the lease (the local journal retains the work). <= 0
	// selects 10.
	MaxErrors int
	// Chaos, when non-nil and enabled, wraps this worker's HTTP
	// client in a fault-injecting chaos.Transport. The worker derives
	// its own seed from Spec.Seed and its name, so one campaign-level
	// seed gives every fleet member an independent, reproducible
	// fault sequence.
	Chaos *chaos.Spec
	// LogInterval throttles local campaign progress lines (0
	// disables them).
	LogInterval time.Duration
	// Memo, when non-nil, backs each unit's pruner with a persistent
	// memo store (internal/store satisfies this): injection runs whose
	// outcome an earlier campaign already established are served from
	// the store instead of simulated. Keys are scoped by the unit's
	// config digest, so only bit-identical campaign configurations
	// share entries.
	Memo runner.MemoStore
	// Logf receives lifecycle lines (nil discards).
	Logf func(format string, args ...any)

	// transport overrides the HTTP transport outright (Chaos is then
	// ignored) — tests inject a chaos.Transport they can interrogate
	// after the run.
	transport http.RoundTripper
}

func (o *WorkerOptions) normalise() error {
	if o.Dir == "" {
		return errors.New("distrib: worker needs a scratch directory")
	}
	if o.Name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		o.Name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if o.PollInterval <= 0 {
		o.PollInterval = time.Second
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 64
	}
	if o.MaxErrors <= 0 {
		o.MaxErrors = 10
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// httpStatusError is a non-2xx coordinator reply.
type httpStatusError struct {
	status int
	code   string
	msg    string
}

func (e *httpStatusError) Error() string {
	return fmt.Sprintf("coordinator answered %d: %s", e.status, e.msg)
}

// leaseLost reports whether an error is the coordinator disowning the
// lease (409) — the unit belongs to someone else now.
func leaseLost(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.status == http.StatusConflict
}

// retryableError reports an error worth retrying: transport failures
// (the request may never have arrived), 5xx (the coordinator is
// restarting or overloaded), and digest-mismatch 4xx (the body was
// damaged in flight — our copy is intact).
func retryableError(err error) bool {
	var se *httpStatusError
	if !errors.As(err, &se) {
		return true // transport-level: connection refused/reset/dropped
	}
	return se.status >= 500 || se.code == CodeBodyDigest
}

// fatalStatus reports a reply that retrying cannot fix: a 4xx other
// than lease-conflict (409) and wire damage (CodeBodyDigest).
func fatalStatus(err error) bool {
	var se *httpStatusError
	return errors.As(err, &se) && se.status >= 400 && se.status < 500 &&
		se.status != http.StatusConflict && se.code != CodeBodyDigest
}

// worker is one agent's connection to a coordinator.
type worker struct {
	base   string
	opts   WorkerOptions
	ctx    context.Context
	client *http.Client
	policy backoff.Policy
	// campaign is the current lease's campaign ID, echoed as
	// HeaderCampaign on every unit-scoped request so a multiplexing
	// service can route it. Written only between units (runUnit joins
	// its heartbeat goroutine before returning), so the concurrent
	// reads in that goroutine are safe.
	campaign string
	// prepared is the campaign of the last unit run, keyed by unit
	// identity (preparedKey): consecutive units of one campaign share
	// its golden pass and plan. One slot keeps a long-lived agent's
	// memory bounded however many campaigns it serves.
	prepared    *runner.Prepared
	preparedKey string
}

func newWorker(ctx context.Context, coordinatorURL string, opts WorkerOptions) *worker {
	transport := opts.transport
	if transport == nil && opts.Chaos != nil && opts.Chaos.Enabled() {
		spec := *opts.Chaos
		spec.Seed = chaos.DeriveSeed(spec.Seed, opts.Name)
		transport = chaos.NewTransport(spec, nil, opts.Logf)
		opts.Logf("distrib: worker %s: chaos enabled (%s)", opts.Name, spec.String())
	}
	return &worker{
		base: coordinatorURL,
		opts: opts,
		ctx:  ctx,
		client: &http.Client{
			Timeout:   30 * time.Second,
			Transport: transport,
		},
		policy: backoff.Policy{
			Base:     100 * time.Millisecond,
			Cap:      2 * time.Second,
			Attempts: opts.MaxErrors,
		},
	}
}

// send posts one pre-encoded body and decodes the JSON reply. The
// body carries its SHA-256 in HeaderBodyDigest so the coordinator can
// reject wire-damaged deliveries, and — for the mutating endpoints —
// the same digest as HeaderIdempotencyKey so duplicated deliveries
// replay instead of re-executing. Non-2xx replies come back as
// *httpStatusError.
func (w *worker) send(path, contentType string, body []byte, resp any) error {
	sum := sha256.Sum256(body)
	digest := hex.EncodeToString(sum[:])
	hreq, err := http.NewRequestWithContext(w.ctx, http.MethodPost, w.base+path, bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("distrib: building %s request: %w", path, err)
	}
	hreq.Header.Set("Content-Type", contentType)
	hreq.Header.Set(HeaderBodyDigest, digest)
	if path == PathRecords || path == PathComplete {
		hreq.Header.Set(HeaderIdempotencyKey, digest)
	}
	if w.campaign != "" && path != PathLease {
		hreq.Header.Set(HeaderCampaign, w.campaign)
	}
	r, err := w.client.Do(hreq)
	if err != nil {
		return fmt.Errorf("distrib: %s: %w", path, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		var er errorResponse
		data, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
		if json.Unmarshal(data, &er) != nil || er.Error == "" {
			er.Error = string(data)
		}
		return &httpStatusError{status: r.StatusCode, code: er.Code, msg: er.Error}
	}
	if resp == nil {
		return nil
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		return fmt.Errorf("distrib: decoding %s reply: %w", path, err)
	}
	return nil
}

// post sends one JSON request.
func (w *worker) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("distrib: encoding %s request: %w", path, err)
	}
	return w.send(path, ContentTypeJSON, body, resp)
}

// sendRetry retries transient failures — network errors, 5xx,
// wire-damage 4xx — under the shared full-jitter backoff policy,
// bounded to the given number of attempts (<= 0 selects MaxErrors).
// Non-retryable statuses return immediately, and a cancelled context
// aborts the wait mid-backoff.
func (w *worker) sendRetry(path, contentType string, body []byte, resp any, attempts int) error {
	pol := w.policy
	if attempts > 0 {
		pol.Attempts = attempts
	}
	pol.OnRetry = func(attempt int, delay time.Duration, err error) {
		w.opts.Logf("distrib: worker %s: %s attempt %d failed (%v), retrying in %v",
			w.opts.Name, path, attempt+1, err, delay)
	}
	return pol.Do(w.ctx, retryableError, func() error { return w.send(path, contentType, body, resp) })
}

// postRetry is sendRetry for a JSON request.
func (w *worker) postRetry(path string, req, resp any, attempts int) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("distrib: encoding %s request: %w", path, err)
	}
	return w.sendRetry(path, ContentTypeJSON, body, resp, attempts)
}

// sleep pauses for d unless the context ends first, reporting whether
// the full pause elapsed.
func (w *worker) sleep(d time.Duration) bool {
	if d <= 0 {
		return w.ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-w.ctx.Done():
		return false
	}
}

// RunWorker joins the fleet of the coordinator at coordinatorURL with
// a background context; see RunWorkerContext.
func RunWorker(coordinatorURL string, opts WorkerOptions) error {
	return RunWorkerContext(context.Background(), coordinatorURL, opts)
}

// RunWorkerContext joins the fleet of the coordinator at
// coordinatorURL and processes work units until the campaign
// completes (returns nil), ctx is cancelled (returns ctx.Err()), or
// the worker fails fatally: coordinator unreachable past MaxErrors
// consecutive lease attempts, config-digest mismatch (version skew),
// or a local execution error. A lost lease is not fatal — the worker
// abandons the unit and asks for new work. A coordinator that becomes
// unreachable while a unit executes is not fatal either: the records
// live in the worker's local journal, execution continues, and the
// upload phase degrades gracefully until the coordinator returns.
func RunWorkerContext(ctx context.Context, coordinatorURL string, opts WorkerOptions) error {
	if err := opts.normalise(); err != nil {
		return err
	}
	w := newWorker(ctx, coordinatorURL, opts)
	consecutive := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var lr LeaseResponse
		if err := w.post(PathLease, LeaseRequest{Worker: opts.Name}, &lr); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			consecutive++
			if consecutive >= opts.MaxErrors {
				return fmt.Errorf("distrib: worker %s: %d consecutive lease failures, last: %w",
					opts.Name, consecutive, err)
			}
			if !w.sleep(w.policy.Delay(consecutive - 1)) {
				return ctx.Err()
			}
			continue
		}
		consecutive = 0
		switch lr.Status {
		case StatusDone:
			opts.Logf("distrib: worker %s: campaign complete", opts.Name)
			return nil
		case StatusWait:
			// The coordinator already parked this request in its
			// long-poll; trust its hint — it is deliberately immediate
			// so the worker bounces straight back into another
			// long-poll instead of sleeping through a unit becoming
			// available.
			wait := time.Duration(lr.RetryMs) * time.Millisecond
			if wait <= 0 {
				wait = opts.PollInterval
			}
			if !w.sleep(wait) {
				return ctx.Err()
			}
		case StatusUnit:
			if lr.Unit == nil {
				return fmt.Errorf("distrib: worker %s: unit lease %s carried no unit", opts.Name, lr.LeaseID)
			}
			if err := w.runUnit(lr); err != nil {
				return fmt.Errorf("distrib: worker %s: %w", opts.Name, err)
			}
		default:
			return fmt.Errorf("distrib: worker %s: unknown lease status %q", opts.Name, lr.Status)
		}
	}
}

// prepare resolves and prepares the unit's campaign through this
// worker's own registry, reusing the last unit's preparation when the
// identity matches. A unit naming an instance this worker has never
// heard of but carrying its topology document compiles and registers
// the document first — the config digest check downstream still
// guards against a divergent compilation.
func (w *worker) prepare(u *WorkUnit) (*runner.Prepared, error) {
	key := fmt.Sprintf("%s|%s|%d|%t|%g", u.Instance, u.Tier, u.RunBudgetSteps, u.Adaptive, u.CIEpsilon)
	if w.prepared != nil && w.preparedKey == key {
		return w.prepared, nil
	}
	if _, err := runner.Lookup(u.Instance); err != nil && u.Document != "" {
		def, derr := runner.LoadSynthBytes([]byte(u.Document), u.Instance)
		if derr != nil {
			return nil, fmt.Errorf("distrib: compiling unit document for %s: %w", u.Instance, derr)
		}
		// A registration race with a sibling worker goroutine loses
		// benignly: the winner registered byte-identical content.
		_ = runner.Register(def)
	}
	// The unit carries the digest-relevant options, so the worker's
	// preparation agrees with the coordinator's digest by construction.
	opts := runner.Options{RunBudgetSteps: u.RunBudgetSteps, Workers: w.opts.Workers}
	if u.Adaptive {
		opts.Adaptive = campaign.AdaptiveForce
		opts.CIEpsilon = u.CIEpsilon
	}
	p, err := runner.PrepareInstance(u.Instance, runner.Tier(u.Tier), opts)
	if err != nil {
		return nil, err
	}
	w.prepared, w.preparedKey = p, key
	return p, nil
}

// scratchDir is the unit's local artifact directory. The worker name
// is part of the path so two fleet members sharing a filesystem (or
// one process hosting a loopback fleet) never append the same local
// journal. The path keys on the job list's content digest: a
// re-leased identical list (this worker restarting under a live
// coordinator) resumes its own prior work, and a different list — a
// resumed coordinator claims afresh — gets a fresh directory.
func (w *worker) scratchDir(u *WorkUnit) string {
	digest8 := u.ConfigDigest
	if len(digest8) > 8 {
		digest8 = digest8[:8]
	}
	return filepath.Join(w.opts.Dir, w.opts.Name,
		fmt.Sprintf("%s-%s-%s", u.Instance, u.Tier, digest8),
		"unit-"+jobListDigest(u.JobList))
}

// jobListDigest content-addresses a unit's (ascending) job list.
func jobListDigest(jobs []int) string {
	h := sha256.New()
	for _, job := range jobs {
		fmt.Fprintf(h, "%d\n", job)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// pendingJobs drops the jobs the coordinator already holds from a
// unit's list; both lists ascend.
func pendingJobs(jobs, done []int) []int {
	if len(done) == 0 {
		return jobs
	}
	out := make([]int, 0, len(jobs))
	for _, job := range jobs {
		for len(done) > 0 && done[0] < job {
			done = done[1:]
		}
		if len(done) > 0 && done[0] == job {
			continue
		}
		out = append(out, job)
	}
	return out
}

// liveAttempts is the per-chunk retry budget while the coordinator is
// believed reachable; a chunk that exhausts it flips the upload into
// degraded mode, which escalates to the full MaxErrors ladder (the
// work is done and journaled — patience is cheap, re-execution is
// not).
const liveAttempts = 3

// unitOutcome aggregates a record set for the digest-only completion.
func unitOutcome(recs []runner.Record) (outcomes map[string]int, pruned, memoized, storeMemo, converged int) {
	outcomes = make(map[string]int, 4)
	for _, rec := range recs {
		outcomes[rec.Outcome]++
		switch rec.Pruned {
		case campaign.PrunedNoOp, campaign.PrunedUnfired:
			pruned++
		case campaign.PrunedMemoized:
			memoized++
		case campaign.PrunedMemoStore:
			memoized++
			storeMemo++
		case campaign.PrunedConverged:
			converged++
		}
	}
	return outcomes, pruned, memoized, storeMemo, converged
}

// encodeChunk builds one /v1/records binary frame. The returned
// release func recycles the pooled buffer backing it.
func encodeChunk(leaseID string, recs []runner.Record) (body []byte, release func(), err error) {
	buf := acquireBuffer()
	if err := encodeRecordBatch(buf, RecordBatch{LeaseID: leaseID, Records: recs}); err != nil {
		releaseBuffer(buf)
		return nil, nil, err
	}
	return buf.Bytes(), func() { releaseBuffer(buf) }, nil
}

// runUnit executes one leased work unit through the local supervised
// runner — journaled, checkpointed and resumable in the unit's
// scratch directory — heartbeating progress while it simulates, and
// finishes with a digest-only completion. Only when the coordinator
// answers NeedRecords (the steady state: it holds nothing for a
// freshly executed unit) does the record set upload, in one bulk pass
// of BatchSize chunks. The coordinator is therefore entirely off the
// hot path while runs execute: no mid-run streaming, no per-record
// coordinator journaling, just cheap heartbeats.
func (w *worker) runUnit(lr LeaseResponse) error {
	u := lr.Unit
	if len(u.JobList) == 0 {
		// A nil list would tell the runner to execute the whole campaign.
		return fmt.Errorf("unit %d carries no job list — coordinator version skew", u.Unit)
	}
	p, err := w.prepare(u)
	if err != nil {
		return err
	}
	if digest := p.Info().Digest; digest != u.ConfigDigest {
		return fmt.Errorf("local config digest %s does not match coordinator's %s for %s/%s — version skew: %w",
			digest, u.ConfigDigest, u.Instance, u.Tier, runner.ErrDigestMismatch)
	}

	w.campaign = lr.Campaign
	defer func() { w.campaign = "" }()
	w.opts.Logf("distrib: worker %s: running unit %d (%s, %d of %d jobs pre-done)",
		w.opts.Name, u.Unit, lr.LeaseID, len(u.DoneJobs), u.Jobs())

	// lost flips once the coordinator disowns the lease; the Abort
	// hook then drains the local campaign without error, and the
	// upload phase stops. progress feeds the heartbeat's Done field.
	var lost atomic.Bool
	var progress atomic.Int64
	recs := make([]runner.Record, 0, u.Jobs()-len(u.DoneJobs))

	// Heartbeat at a third of the TTL for the whole lease — execution
	// and upload — so a long simulation (or a slow upload of a big
	// unit) keeps the lease alive.
	ttl := time.Duration(lr.TTLMs) * time.Millisecond
	hbEvery := ttl / 3
	if hbEvery <= 0 {
		hbEvery = time.Second
	}
	stopHB := make(chan struct{})
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		t := time.NewTicker(hbEvery)
		defer t.Stop()
		for {
			select {
			case <-stopHB:
				return
			case <-w.ctx.Done():
				return
			case <-t.C:
				var hr HeartbeatResponse
				req := HeartbeatRequest{LeaseID: lr.LeaseID, Done: int(progress.Load())}
				if err := w.post(PathHeartbeat, req, &hr); err != nil {
					if leaseLost(err) || fatalStatus(err) {
						lost.Store(true)
						return
					}
					// Transient: the next tick renews the lease.
				}
			}
		}
	}()
	defer func() {
		select {
		case <-stopHB:
		default:
			close(stopHB)
		}
		<-hbDone
	}()

	start := time.Now()
	_, runErr := p.Run(runner.Options{
		Dir:         w.scratchDir(u),
		Resume:      true,
		LogInterval: w.opts.LogInterval,
		Logf:        w.opts.Logf,
		Memo:        w.opts.Memo,
		// The unit scratch is an intermediate artifact; the final
		// report renders once, from the coordinator's assembly.
		SkipReport: true,
		// The unit is a fixed job set; jobs the coordinator already
		// holds are dropped so a reassigned unit fast-forwards. (For
		// adaptive units the coordinator made the scheduling decisions
		// — the worker executes the assigned set verbatim; Run keeps
		// the adaptive digest but skips its own scheduler when given
		// Jobs.)
		Jobs:  pendingJobs(u.JobList, u.DoneJobs),
		Abort: func() bool { return lost.Load() || w.ctx.Err() != nil },
		// OnRecord runs on the serial observer path: replayed delivery
		// re-collects records a previous incarnation of this worker
		// journaled locally, so a restarted worker still uploads its
		// full set.
		OnRecord: func(rec runner.Record, replayed bool) error {
			recs = append(recs, rec)
			progress.Add(1)
			return nil
		},
	})
	wallMs := time.Since(start).Milliseconds()
	if runErr != nil {
		return runErr
	}
	if err := w.ctx.Err(); err != nil {
		return err
	}
	if lost.Load() {
		w.opts.Logf("distrib: worker %s: lease %s lost — abandoning unit %d; the local journal retains the work",
			w.opts.Name, lr.LeaseID, u.Unit)
		return nil
	}

	// Digest-only completion. The digest only describes a complete
	// set: with DoneJobs the unit's records are split between worker
	// and coordinator, and per-record content keying covers the
	// upload instead.
	outcomes, pruned, memoized, storeMemo, converged := unitOutcome(recs)
	creq := CompleteRequest{
		LeaseID:   lr.LeaseID,
		Runs:      len(recs),
		WallMs:    wallMs,
		Outcomes:  outcomes,
		Pruned:    pruned,
		Memoized:  memoized,
		StoreMemo: storeMemo,
		Converged: converged,
	}
	if len(u.DoneJobs) == 0 {
		creq.Digest = runner.RecordSetDigest(recs)
	}
	cr, abandon, err := w.complete(lr, creq)
	if err != nil || abandon {
		return err
	}
	if cr.NeedRecords {
		if abandon, err := w.uploadRecords(lr, recs, &lost); err != nil || abandon {
			return err
		}
		creq.Uploaded = true
		cr, abandon, err = w.complete(lr, creq)
		if err != nil || abandon {
			return err
		}
		if cr.NeedRecords {
			// The coordinator still wants records after a full upload —
			// nothing more this worker can add. Abandon; the lease
			// expires and the gap reassigns.
			w.opts.Logf("distrib: worker %s: coordinator still needs records for unit %d after upload — abandoning lease",
				w.opts.Name, u.Unit)
			return nil
		}
	}
	w.opts.Logf("distrib: worker %s: unit %d complete (%d runs, %d ms)",
		w.opts.Name, u.Unit, len(recs), wallMs)
	return nil
}

// complete posts one completion request. abandon reports a
// non-fatal dead end (lease lost, coordinator unreachable past the
// retry budget): the worker drops the unit and asks for new work,
// with the local journal retaining everything it did.
func (w *worker) complete(lr LeaseResponse, creq CompleteRequest) (cr CompleteResponse, abandon bool, err error) {
	if err := w.postRetry(PathComplete, creq, &cr, 0); err != nil {
		if leaseLost(err) {
			w.opts.Logf("distrib: worker %s: complete for %s rejected — unit reassigned", w.opts.Name, lr.LeaseID)
			return cr, true, nil
		}
		if fatalStatus(err) || w.ctx.Err() != nil {
			return cr, false, err
		}
		w.opts.Logf("distrib: worker %s: complete for %s undeliverable (%v) — abandoning lease; the local journal retains the work",
			w.opts.Name, lr.LeaseID, err)
		return cr, true, nil
	}
	return cr, false, nil
}

// uploadRecords bulk-uploads a completed unit's record set in
// BatchSize chunks of binary frames. An unreachable
// coordinator degrades the upload instead of failing it: the chunk
// retries under the full MaxErrors ladder, and only two consecutive
// exhausted ladders abandon the lease (abandon=true) — the local
// journal retains the records, so a later lease of the same job list
// fast-forwards straight back here.
func (w *worker) uploadRecords(lr LeaseResponse, recs []runner.Record, lost *atomic.Bool) (abandon bool, err error) {
	degraded := false
	exhausted := 0
	for off := 0; off < len(recs); {
		if lost.Load() {
			w.opts.Logf("distrib: worker %s: lease %s lost mid-upload — abandoning; the local journal retains the work",
				w.opts.Name, lr.LeaseID)
			return true, nil
		}
		end := off + w.opts.BatchSize
		if end > len(recs) {
			end = len(recs)
		}
		body, release, err := encodeChunk(lr.LeaseID, recs[off:end])
		if err != nil {
			return false, err
		}
		attempts := liveAttempts
		if degraded {
			attempts = w.opts.MaxErrors
		}
		var br BatchResponse
		sendErr := w.sendRetry(PathRecords, ContentTypeBinary, body, &br, attempts)
		release()
		if sendErr == nil {
			if degraded {
				degraded = false
				w.opts.Logf("distrib: worker %s: coordinator reachable again — upload resumed", w.opts.Name)
			}
			exhausted = 0
			off = end
			continue
		}
		if leaseLost(sendErr) {
			w.opts.Logf("distrib: worker %s: lease %s lost mid-upload — abandoning; the local journal retains the work",
				w.opts.Name, lr.LeaseID)
			return true, nil
		}
		if fatalStatus(sendErr) || w.ctx.Err() != nil {
			return false, sendErr
		}
		if !degraded {
			w.opts.Logf("distrib: worker %s: coordinator unreachable (%v) — degrading: upload pauses on the local journal and retries patiently",
				w.opts.Name, sendErr)
			degraded = true
		}
		exhausted++
		if exhausted >= 2 {
			w.opts.Logf("distrib: worker %s: upload for %s undeliverable after %d retry ladders — abandoning lease; the local journal retains the work",
				w.opts.Name, lr.LeaseID, exhausted)
			return true, nil
		}
	}
	return false, nil
}
