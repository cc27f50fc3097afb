// Package service hosts many campaigns as one long-lived multi-tenant
// process: propaned -serve. Submissions — a registry instance name or
// an inline declarative topology document — pass write-controller
// admission (per-tenant quotas, delay/stop thresholds on queue depth,
// 429 + Retry-After on rejection), queue durably, and execute as
// internal/distrib campaigns multiplexed over ONE shared worker
// fleet: the service's /v1/lease interleaves the active campaigns'
// frontiers weighted-fair by tenant, and unit-scoped worker RPCs
// route to the owning campaign's coordinator by the X-Propane-Campaign
// header — bodies untouched, so digests and idempotency keys survive
// the indirection. Every accepted submission, activation and terminal
// transition appends to service.bin; a killed service restarted
// with -resume recovers all in-flight campaigns bit-identically from
// that journal plus each coordinator's own journals. A resubmission
// whose config digest matches a finished campaign's never reaches the
// fleet: it is served from that campaign's journal and artifacts. An
// optional content-addressed store (internal/store) persists memo
// entries and assembled reports across campaigns, tenants and process
// lifetimes.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/distrib"
	"propane/internal/runner"
	"propane/internal/store"
	"propane/internal/wal"
)

// CrashPreEnqueueAck is the service's chaos crash point: it fires
// after a submission is journaled but before the client hears the
// 202. The resumed service owns a campaign its submitter never got an
// acknowledgement for — the classic at-least-once window.
const CrashPreEnqueueAck = "pre-enqueue-ack"

const (
	journalName       = "service.bin"
	legacyJournalName = "service.jsonl"
	// leaseWaitMax bounds the service's fleet-wide lease long-poll,
	// mirroring the coordinator's own (it must stay under the worker
	// client's 30 s timeout and the server's handler deadline).
	leaseWaitMax = 10 * time.Second
	leaseRetryMs = 1
)

// Campaign states.
const (
	StateQueued     = "queued"
	StateActivating = "activating"
	StateActive     = "active"
	StateDone       = "done"
	StateFailed     = "failed"
)

// Quotas bounds one tenant's load, enforced at admission (queue
// depth, jobs) and by the activation pump (concurrency).
type Quotas struct {
	// MaxQueued is the most campaigns a tenant may have waiting in the
	// queue. <= 0 selects 8.
	MaxQueued int
	// MaxActive is the most campaigns of one tenant executing
	// concurrently; further ones queue behind them. <= 0 selects 2.
	MaxActive int
	// MaxJobs caps a tenant's total injection runs in flight — the sum
	// of plan×cases over its queued and active campaigns. Computed
	// from the campaign plan alone (no golden runs), so admission
	// stays cheap. <= 0 selects 500000.
	MaxJobs int
}

func (q *Quotas) normalise() {
	if q.MaxQueued <= 0 {
		q.MaxQueued = 8
	}
	if q.MaxActive <= 0 {
		q.MaxActive = 2
	}
	if q.MaxJobs <= 0 {
		q.MaxJobs = 500000
	}
}

// Options parameterises the service.
type Options struct {
	// Dir is the service root: service.bin plus one
	// campaigns/<id>/ subtree per campaign (saved topology document,
	// coordinator journals, assembled artifacts). Required.
	Dir string
	// Store, when non-nil, persists assembled reports (content
	// addressed, named by ref) and is the service's half of the
	// cross-campaign memo economy — workers carry their own store.
	// The service never fails when the store degrades; it only loses
	// persistence.
	Store *store.Store
	// Quotas applies to every tenant.
	Quotas Quotas
	// TenantWeights biases the fair-share lease scheduler (deficit =
	// granted jobs / weight; lowest deficit leases next). Absent or
	// <= 0 means weight 1.
	TenantWeights map[string]int
	// MaxActiveTotal bounds concurrently executing campaigns across
	// all tenants. <= 0 selects 4.
	MaxActiveTotal int
	// DelayThreshold and StopThreshold are the write-controller marks
	// on total queue depth: at DelayThreshold admission starts
	// answering 429 with a Retry-After that grows with the backlog
	// (backpressure), at StopThreshold it rejects outright with the
	// maximum Retry-After. <= 0 select 16 and 64.
	DelayThreshold int
	StopThreshold  int
	// Units and LeaseTTL pass through to each campaign's coordinator
	// (see distrib.Config).
	Units    int
	LeaseTTL time.Duration
	// Resume restores service state from service.bin and each
	// in-flight campaign's journals instead of refusing a non-empty
	// directory.
	Resume bool
	// GCInterval runs Store.GC this often (0 disables; ignored
	// without a Store).
	GCInterval time.Duration
	// EventInterval paces the /events SSE stream. <= 0 selects 1 s.
	EventInterval time.Duration
	// Crash arms chaos crash points: CrashPreEnqueueAck here, the
	// coordinator labels in every campaign it activates, and
	// store.CrashMidStorePut if the caller passed the same registry to
	// the store.
	Crash *chaos.Crashpoints
	// Logf receives lifecycle lines (nil discards).
	Logf func(format string, args ...any)
}

func (o *Options) normalise() error {
	if o.Dir == "" {
		return errors.New("service: no directory")
	}
	o.Quotas.normalise()
	if o.MaxActiveTotal <= 0 {
		o.MaxActiveTotal = 4
	}
	if o.DelayThreshold <= 0 {
		o.DelayThreshold = 16
	}
	if o.StopThreshold <= 0 {
		o.StopThreshold = 64
	}
	if o.StopThreshold < o.DelayThreshold {
		o.StopThreshold = o.DelayThreshold
	}
	if o.EventInterval <= 0 {
		o.EventInterval = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// SubmitRequest is the body of POST /v1/campaigns. Exactly one of
// Instance (a registry name) or Document (an inline declarative
// topology, YAML or JSON) selects the target; the submitting tenant
// rides in the X-Propane-Tenant header.
type SubmitRequest struct {
	Instance string `json:"instance,omitempty"`
	Document string `json:"document,omitempty"`
	Tier     string `json:"tier,omitempty"`
	// RunBudgetSteps arms the per-run watchdog fleet-wide (0 keeps
	// the instance default).
	RunBudgetSteps int64 `json:"run_budget_steps,omitempty"`
	// Adaptive selects sequential CI-driven sampling: "off" (or
	// absent), "auto", "force". CIEpsilon is the stopping half-width ε
	// (0 keeps the 0.05 default).
	Adaptive  string  `json:"adaptive,omitempty"`
	CIEpsilon float64 `json:"ci_epsilon,omitempty"`
}

// CampaignInfo is one campaign's public state.
type CampaignInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	Instance string `json:"instance"`
	Tier     string `json:"tier"`
	State    string `json:"state"`
	// Jobs is the campaign's total injection-run count (plan×cases) —
	// the unit of the tenant jobs quota and of fair-share accounting.
	Jobs           int     `json:"jobs"`
	RunBudgetSteps int64   `json:"run_budget_steps,omitempty"`
	Adaptive       string  `json:"adaptive,omitempty"`
	CIEpsilon      float64 `json:"ci_epsilon,omitempty"`
	SubmittedMs    int64   `json:"submitted_ms,omitempty"`
	StartedMs      int64   `json:"started_ms,omitempty"`
	DoneMs         int64   `json:"done_ms,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Source names the finished campaign a repeat was served from:
	// same config digest, so its records and result came from Source's
	// journal instead of executing. Empty for a campaign that executed.
	Source string `json:"source,omitempty"`
}

// AdmissionError is a 429 with backoff guidance — the write
// controller refusing work it cannot absorb yet.
type AdmissionError struct {
	Code       string
	RetryAfter time.Duration
	Reason     string
}

func (e *AdmissionError) Error() string {
	return fmt.Sprintf("%s (retry after %s)", e.Reason, e.RetryAfter)
}

// journalFormat is the service log's header.
var journalFormat = wal.Header{Type: "header", Kind: "service", Version: 1}

// journalEvent is one frame of the service log.
type journalEvent struct {
	Op        string  `json:"op"` // submit | activate | done | fail
	ID        string  `json:"id"`
	Tenant    string  `json:"tenant,omitempty"`
	Instance  string  `json:"instance,omitempty"`
	Tier      string  `json:"tier,omitempty"`
	RunBudget int64   `json:"run_budget,omitempty"`
	Adaptive  string  `json:"adaptive,omitempty"`
	CIEpsilon float64 `json:"ci_epsilon,omitempty"`
	// Doc is the saved topology document's path relative to Dir —
	// the journal stays relocatable.
	Doc  string `json:"doc,omitempty"`
	Jobs int    `json:"jobs,omitempty"`
	// Digest (done) is the campaign's config digest, from which replay
	// rebuilds the index of finished campaigns; Source (done) is the
	// campaign a repeat was served from.
	Digest string `json:"digest,omitempty"`
	Source string `json:"source,omitempty"`
	Error  string `json:"error,omitempty"`
	TimeMs int64  `json:"time_ms,omitempty"`
}

// campaignState is one campaign's full in-memory state.
type campaignState struct {
	CampaignInfo
	docPath  string // absolute path of the saved document, "" for registry instances
	document string // document content, loaded lazily on activation
	// resumeCoord marks a campaign that was active when the service
	// died: its coordinator is recreated with Resume.
	resumeCoord bool
	digest      string // config digest, known once activation has looked it up or prepared the campaign
	coord       *distrib.Coordinator
	handler     http.Handler
	result      *runner.RunResult
	granted     int64 // jobs granted to the fleet (fair-share bookkeeping)
	// assembling serialises assembling this campaign's result for its
	// repeats when it finished in an earlier process (serve).
	assembling sync.Mutex
}

// request is a campaign's canonical submit fields, as resolveSubmit
// leaves them (document instances are named by content): within one
// process, equal requests prepare to the same config digest.
type request struct {
	instance, tier, adaptive string
	runBudget                int64
	epsilon                  float64
}

func (cs *campaignState) request() request {
	return request{cs.Instance, cs.Tier, cs.Adaptive, cs.RunBudgetSteps, cs.CIEpsilon}
}

// preparation is one request's runner.PrepareInstance; done closes
// once prep or err is set.
type preparation struct {
	done chan struct{}
	prep *runner.Prepared
	err  error
}

// Service is the multi-tenant campaign host.
type Service struct {
	opts Options
	logf func(format string, args ...any)

	mu        sync.Mutex
	campaigns map[string]*campaignState
	order     []string // every campaign, submit order
	queue     []string // queued campaigns, activation order
	seq       int
	journal   *wal.Log
	// tenantGranted is the fair-share ledger: jobs granted to the
	// fleet per tenant, divided by the tenant's weight to pick the
	// next campaign to lease from.
	tenantGranted map[string]int64
	// finished maps a config digest to the latest campaign that
	// executed it to completion: a later campaign with that digest is
	// served from its journal.
	finished map[string]string
	// digests memoises the config digest each request prepared to in
	// this process, so a repeat runs no golden pass. It is never
	// journaled: a resumed (perhaps upgraded) binary re-derives every
	// digest through its own golden pass, so the digest keeps pinning
	// the simulator.
	digests map[request]string
	// preparing holds each request's preparation while the activation
	// that runs it is active; concurrent activations share it.
	preparing map[request]*preparation
	// prepares and served count this process's golden passes and
	// served repeats (Status).
	prepares, served int
	// leaseWake is closed (and replaced) whenever lease-relevant state
	// changes — a campaign activates, completes, or a coordinator
	// returns a unit to its pool — releasing parked fleet long-polls.
	leaseWake chan struct{}
	pumpCh    chan struct{}
	crashed   bool
	closed    bool

	done chan struct{}
	wg   sync.WaitGroup
}

// Open starts a service over dir, resuming from its journal when
// opts.Resume is set (and refusing a non-empty journal otherwise).
func Open(opts Options) (*Service, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(opts.Dir, "campaigns"), 0o755); err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	s := &Service{
		opts:          opts,
		logf:          opts.Logf,
		campaigns:     make(map[string]*campaignState),
		tenantGranted: make(map[string]int64),
		finished:      make(map[string]string),
		digests:       make(map[request]string),
		preparing:     make(map[request]*preparation),
		leaseWake:     make(chan struct{}),
		pumpCh:        make(chan struct{}, 1),
		done:          make(chan struct{}),
	}
	if err := s.replayJournal(); err != nil {
		return nil, err
	}
	s.wg.Add(1)
	go s.pump()
	if opts.Store != nil && opts.GCInterval > 0 {
		s.wg.Add(1)
		go s.gcLoop()
	}
	s.kickPump()
	return s, nil
}

// replayJournal rebuilds campaigns, queue and sequence from the
// service log, cuts a torn tail and opens the log for appending.
func (s *Service) replayJournal() error {
	path := filepath.Join(s.opts.Dir, journalName)
	legacy := filepath.Join(s.opts.Dir, legacyJournalName)
	if _, err := os.Stat(legacy); err == nil {
		return fmt.Errorf("service: %s is a JSON-lines service log from an older build, which this one does not read "+
			"(the service log is now %s) — use a fresh directory", legacy, journalName)
	}
	var wasActive []string // activation order
	events := 0
	validLen, err := wal.Load(path, journalFormat, nil, func(payload []byte) error {
		var ev journalEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		events++
		switch ev.Op {
		case "submit":
			cs := &campaignState{CampaignInfo: CampaignInfo{
				ID:             ev.ID,
				Tenant:         ev.Tenant,
				Instance:       ev.Instance,
				Tier:           ev.Tier,
				State:          StateQueued,
				Jobs:           ev.Jobs,
				RunBudgetSteps: ev.RunBudget,
				Adaptive:       ev.Adaptive,
				CIEpsilon:      ev.CIEpsilon,
				SubmittedMs:    ev.TimeMs,
			}}
			if ev.Doc != "" {
				cs.docPath = filepath.Join(s.opts.Dir, ev.Doc)
			}
			s.campaigns[ev.ID] = cs
			s.order = append(s.order, ev.ID)
			var n int
			if _, err := fmt.Sscanf(ev.ID, "c%d", &n); err == nil && n > s.seq {
				s.seq = n
			}
		case "activate":
			if cs := s.campaigns[ev.ID]; cs != nil {
				cs.State = StateActive
				cs.StartedMs = ev.TimeMs
				wasActive = append(wasActive, ev.ID)
			}
		case "done", "fail":
			if cs := s.campaigns[ev.ID]; cs != nil {
				if ev.Op == "done" {
					cs.State = StateDone
					cs.Source = ev.Source
					if ev.Source == "" {
						s.finished[ev.Digest] = ev.ID
					}
				} else {
					cs.State = StateFailed
					cs.Error = ev.Error
				}
				cs.DoneMs = ev.TimeMs
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if events > 0 && !s.opts.Resume {
		return fmt.Errorf("service: %s already holds campaign state — pass Resume to recover it", path)
	}
	// In-flight campaigns re-queue: the ones that were executing
	// first (their coordinators resume their journals), then the
	// still-queued in submit order.
	for _, id := range wasActive {
		if cs := s.campaigns[id]; cs != nil && cs.State == StateActive {
			cs.State = StateQueued
			cs.resumeCoord = true
			s.queue = append(s.queue, id)
		}
	}
	for _, id := range s.order {
		if cs := s.campaigns[id]; cs.State == StateQueued && !cs.resumeCoord {
			s.queue = append(s.queue, id)
		}
	}
	if len(s.campaigns) > 0 {
		s.logf("service: resumed %d campaigns (%d re-queued) from %s",
			len(s.campaigns), len(s.queue), path)
	}
	// The log is not synced per append: a submission is durable
	// against a killed process once written, not against power loss.
	if s.journal, err = wal.Open(path, journalFormat, validLen, 0); err != nil {
		return fmt.Errorf("service: opening journal: %w", err)
	}
	return nil
}

// appendJournalLocked journals one event and returns its time. The
// journal is the resume source of truth; an append failure degrades
// durability, not service (it is logged, and the in-memory state keeps
// serving).
func (s *Service) appendJournalLocked(ev journalEvent) int64 {
	ev.TimeMs = time.Now().UnixMilli()
	payload, err := json.Marshal(ev)
	if err == nil {
		err = s.journal.Append(payload)
	}
	if err != nil {
		s.logf("service: journal append failed: %v", err)
	}
	return ev.TimeMs
}

// crashHitLocked checks an armed service crash point; on fire the
// service flips dead (every request answers 503 until a resumed
// process takes over) and the in-flight handler aborts reply-less.
func (s *Service) crashHitLocked(label string) {
	if s.opts.Crash.Hit(label) {
		s.crashed = true
		s.logf("service: chaos crash point %q fired — service dead until resumed", label)
		panic(http.ErrAbortHandler)
	}
}

// kickLease releases every parked fleet lease long-poll.
func (s *Service) kickLease() {
	s.mu.Lock()
	close(s.leaseWake)
	s.leaseWake = make(chan struct{})
	s.mu.Unlock()
}

// kickPump nudges the activation pump (non-blocking).
func (s *Service) kickPump() {
	select {
	case s.pumpCh <- struct{}{}:
	default:
	}
}

// sha12 is the content-derived instance-name suffix for submitted
// documents: byte-identical documents collapse to one instance, one
// config digest, one persistent-memo scope.
func sha12(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:12]
}

// resolveSubmit turns a submission into a registered instance name
// plus its job count. Document submissions register under
// synth-doc-<sha12 of content>; re-registration of the same content
// is a no-op.
func resolveSubmit(req *SubmitRequest) (jobs int, err error) {
	if (req.Instance == "") == (req.Document == "") {
		return 0, errors.New("exactly one of instance or document must be given")
	}
	if req.Tier == "" {
		req.Tier = string(runner.TierQuick)
	}
	mode, err := campaign.ParseAdaptiveMode(req.Adaptive)
	if err != nil {
		return 0, err
	}
	req.Adaptive = mode.String()
	if req.Adaptive == "off" {
		req.Adaptive = "" // canonical: absent means the fixed matrix
	}
	if !(req.CIEpsilon >= 0 && req.CIEpsilon < 0.5) { // also rejects NaN
		return 0, fmt.Errorf("ci_epsilon %v outside [0, 0.5)", req.CIEpsilon)
	}
	if req.Document != "" {
		req.Instance = "synth-doc-" + sha12([]byte(req.Document))
		if _, lerr := runner.Lookup(req.Instance); lerr != nil {
			def, derr := runner.LoadSynthBytes([]byte(req.Document), req.Instance)
			if derr != nil {
				return 0, fmt.Errorf("compiling document: %w", derr)
			}
			// A concurrent submission of the same content may have won
			// the registration race; the content is identical either way.
			_ = runner.Register(def)
		}
	}
	def, err := runner.Lookup(req.Instance)
	if err != nil {
		return 0, err
	}
	cfg, err := def.Config(runner.Tier(req.Tier))
	if err != nil {
		return 0, err
	}
	plan, err := cfg.Plan()
	if err != nil {
		return 0, err
	}
	return len(plan) * len(cfg.TestCases), nil
}

// Submit admits one campaign: quota and write-controller checks,
// durable enqueue, 202-equivalent CampaignInfo back. A rejection is
// an *AdmissionError (HTTP 429 + Retry-After); other errors are the
// submitter's (HTTP 400).
func (s *Service) Submit(tenant string, req SubmitRequest) (CampaignInfo, error) {
	if tenant == "" {
		tenant = "default"
	}
	jobs, err := resolveSubmit(&req)
	if err != nil {
		return CampaignInfo{}, err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CampaignInfo{}, errors.New("service is shutting down")
	}
	if aerr := s.admitLocked(tenant, jobs); aerr != nil {
		return CampaignInfo{}, aerr
	}
	s.seq++
	id := fmt.Sprintf("c%04d", s.seq)
	cs := &campaignState{CampaignInfo: CampaignInfo{
		ID:             id,
		Tenant:         tenant,
		Instance:       req.Instance,
		Tier:           req.Tier,
		State:          StateQueued,
		Jobs:           jobs,
		RunBudgetSteps: req.RunBudgetSteps,
		Adaptive:       req.Adaptive,
		CIEpsilon:      req.CIEpsilon,
		SubmittedMs:    time.Now().UnixMilli(),
	}}
	ev := journalEvent{
		Op:        "submit",
		ID:        id,
		Tenant:    tenant,
		Instance:  req.Instance,
		Tier:      req.Tier,
		RunBudget: req.RunBudgetSteps,
		Adaptive:  req.Adaptive,
		CIEpsilon: req.CIEpsilon,
		Jobs:      jobs,
	}
	if req.Document != "" {
		rel := filepath.Join("campaigns", id, "topology.yaml")
		path := filepath.Join(s.opts.Dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return CampaignInfo{}, fmt.Errorf("saving document: %w", err)
		}
		if err := os.WriteFile(path, []byte(req.Document), 0o644); err != nil {
			return CampaignInfo{}, fmt.Errorf("saving document: %w", err)
		}
		cs.docPath = path
		cs.document = req.Document
		ev.Doc = rel
	}
	s.campaigns[id] = cs
	s.order = append(s.order, id)
	s.queue = append(s.queue, id)
	s.appendJournalLocked(ev)
	// The submission is durable; the ack is not yet sent. A crash
	// pinned here leaves a campaign the resumed service will run but
	// the submitter never heard of — at-least-once admission.
	s.crashHitLocked(CrashPreEnqueueAck)
	s.logf("service: %s queued %s (%s/%s, %d jobs, queue depth %d)",
		tenant, id, cs.Instance, cs.Tier, jobs, len(s.queue))
	s.kickPump()
	return cs.CampaignInfo, nil
}

// tenantUsageLocked sums one tenant's live footprint.
func (s *Service) tenantUsageLocked(tenant string) (queued, active, jobs int) {
	for _, cs := range s.campaigns {
		if cs.Tenant != tenant {
			continue
		}
		switch cs.State {
		case StateQueued:
			queued++
			jobs += cs.Jobs
		case StateActivating, StateActive:
			active++
			jobs += cs.Jobs
		}
	}
	return queued, active, jobs
}

// admitLocked is the write controller: the delay threshold starts
// pushing back with growing Retry-After hints, the stop threshold
// (and the per-tenant quotas) reject outright. Modeled on storage
// engines' write controllers — the queue is the L0, submissions are
// writes, and the service sheds load before the backlog drowns it.
func (s *Service) admitLocked(tenant string, jobs int) *AdmissionError {
	depth := len(s.queue)
	if depth >= s.opts.StopThreshold {
		return &AdmissionError{
			Code:       "queue_stopped",
			RetryAfter: 30 * time.Second,
			Reason:     fmt.Sprintf("queue depth %d at stop threshold %d", depth, s.opts.StopThreshold),
		}
	}
	queued, _, inFlight := s.tenantUsageLocked(tenant)
	if queued >= s.opts.Quotas.MaxQueued {
		return &AdmissionError{
			Code:       "tenant_queue_quota",
			RetryAfter: 10 * time.Second,
			Reason:     fmt.Sprintf("tenant %s has %d campaigns queued (quota %d)", tenant, queued, s.opts.Quotas.MaxQueued),
		}
	}
	if inFlight+jobs > s.opts.Quotas.MaxJobs {
		return &AdmissionError{
			Code:       "tenant_jobs_quota",
			RetryAfter: 15 * time.Second,
			Reason: fmt.Sprintf("tenant %s would hold %d jobs in flight (quota %d)",
				tenant, inFlight+jobs, s.opts.Quotas.MaxJobs),
		}
	}
	if depth >= s.opts.DelayThreshold {
		after := time.Duration(1+depth-s.opts.DelayThreshold) * time.Second
		if after > 30*time.Second {
			after = 30 * time.Second
		}
		return &AdmissionError{
			Code:       "queue_delayed",
			RetryAfter: after,
			Reason:     fmt.Sprintf("queue depth %d past delay threshold %d", depth, s.opts.DelayThreshold),
		}
	}
	return nil
}

// pump is the activation loop: whenever nudged, it activates queued
// campaigns while fleet-wide and per-tenant concurrency allow,
// skipping (not blocking behind) tenants at their active quota. Each
// activation runs on its own goroutine, so one campaign's golden pass
// or assembly never holds up another's.
func (s *Service) pump() {
	defer s.wg.Done()
	for {
		select {
		case <-s.pumpCh:
		case <-s.done:
			return
		}
		for {
			cs := s.nextActivatable()
			if cs == nil {
				break
			}
			s.wg.Add(1)
			go func() {
				defer s.wg.Done()
				s.activate(cs)
			}()
		}
	}
}

// nextActivatable claims the first queued campaign whose tenant has
// active capacity, flipping it to activating, or nil when the fleet
// is saturated or the queue yields nothing.
func (s *Service) nextActivatable() *campaignState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.crashed {
		return nil
	}
	activeTotal := 0
	activeByTenant := make(map[string]int)
	for _, cs := range s.campaigns {
		if cs.State == StateActivating || cs.State == StateActive {
			activeTotal++
			activeByTenant[cs.Tenant]++
		}
	}
	if activeTotal >= s.opts.MaxActiveTotal {
		return nil
	}
	for i, id := range s.queue {
		cs := s.campaigns[id]
		if cs == nil || cs.State != StateQueued {
			continue
		}
		if activeByTenant[cs.Tenant] >= s.opts.Quotas.MaxActive {
			continue
		}
		s.queue = append(s.queue[:i:i], s.queue[i+1:]...)
		cs.State = StateActivating
		return cs
	}
	return nil
}

// activate looks the campaign's config digest up in this process's
// memo, or prepares the campaign — its golden pass, deliberately
// outside the service lock and shared with concurrent activations of
// the same request, yields the digest — and serves it from the
// finished campaign with that digest if there is one. Otherwise, or if
// serving fails, it builds the campaign's coordinator over the
// preparation and opens it for leasing.
func (s *Service) activate(cs *campaignState) {
	fail := func(err error) {
		s.logf("service: activating %s failed: %v", cs.ID, err)
		s.mu.Lock()
		cs.State = StateFailed
		cs.Error = err.Error()
		cs.DoneMs = s.appendJournalLocked(journalEvent{Op: "fail", ID: cs.ID, Error: cs.Error})
		s.mu.Unlock()
		s.kickPump()
		s.kickLease()
	}
	if cs.docPath != "" && cs.document == "" {
		data, err := os.ReadFile(cs.docPath)
		if err != nil {
			fail(fmt.Errorf("reloading document: %w", err))
			return
		}
		cs.document = string(data)
	}
	if cs.document != "" {
		if _, err := runner.Lookup(cs.Instance); err != nil {
			def, derr := runner.LoadSynthBytes([]byte(cs.document), cs.Instance)
			if derr != nil {
				fail(fmt.Errorf("compiling document: %w", derr))
				return
			}
			_ = runner.Register(def)
		}
	}
	// Adaptive re-parses from the journaled string; it was validated
	// at submission, so a failure here means a hand-edited journal.
	mode, err := campaign.ParseAdaptiveMode(cs.Adaptive)
	if err != nil {
		fail(err)
		return
	}
	req := cs.request()
	var prep *runner.Prepared
	led := false
	defer func() {
		if led {
			s.mu.Lock()
			delete(s.preparing, req)
			s.mu.Unlock()
		}
	}()
	// prepare runs the campaign's golden pass unless it already ran,
	// memoising the digest, or joins the same request's preparation
	// another activation runs; false means the campaign failed.
	prepare := func() bool {
		if prep != nil {
			return true
		}
		s.mu.Lock()
		p, joined := s.preparing[req]
		if !joined {
			p = &preparation{done: make(chan struct{})}
			s.preparing[req] = p
		}
		s.mu.Unlock()
		if joined {
			<-p.done
		} else {
			p.prep, p.err = runner.PrepareInstance(cs.Instance, runner.Tier(cs.Tier), runner.Options{
				RunBudgetSteps: cs.RunBudgetSteps,
				Adaptive:       mode,
				CIEpsilon:      cs.CIEpsilon,
			})
			s.mu.Lock()
			if p.err == nil {
				s.prepares++
				s.digests[req] = p.prep.Info().Digest
			}
			s.mu.Unlock()
			close(p.done)
			led = true
		}
		if p.err != nil {
			fail(p.err)
			return false
		}
		prep = p.prep
		return true
	}
	logf := func(format string, args ...any) {
		s.logf("["+cs.ID+"] "+format, args...)
	}
	dir := s.coordDir(cs.ID)
	s.mu.Lock()
	digest, known := s.digests[req]
	s.mu.Unlock()
	if !known {
		if !prepare() {
			return
		}
		digest = prep.Info().Digest
	}
	s.mu.Lock()
	cs.digest = digest
	src := s.campaigns[s.finished[digest]]
	// A campaign resumed mid-flight continues its own journal.
	if src != nil && !cs.resumeCoord {
		cs.StartedMs = s.appendJournalLocked(journalEvent{Op: "activate", ID: cs.ID})
	} else {
		src = nil
	}
	// A source that finished in an earlier process has no result in
	// memory; serving assembles it with the preparation.
	assemble := src != nil && src.result == nil
	s.mu.Unlock()
	if src != nil {
		if assemble && !prepare() {
			return
		}
		rr, err := s.serve(src, digest, prep, dir, logf)
		if err == nil {
			s.logf("service: %s served from %s (digest %s)", cs.ID, src.ID, digest)
			s.finish(cs, src.ID, rr, nil)
			return
		}
		s.logf("service: %s not served from %s, executing instead: %v", cs.ID, src.ID, err)
		if err := os.RemoveAll(dir); err != nil {
			fail(fmt.Errorf("removing the copied artifacts: %w", err))
			return
		}
	}
	if !prepare() {
		return
	}
	coord, err := distrib.NewPreparedCoordinator(distrib.Config{
		Instance:       cs.Instance,
		Tier:           runner.Tier(cs.Tier),
		Dir:            dir,
		Units:          s.opts.Units,
		LeaseTTL:       s.opts.LeaseTTL,
		Resume:         cs.resumeCoord,
		RunBudgetSteps: cs.RunBudgetSteps,
		Adaptive:       mode,
		CIEpsilon:      cs.CIEpsilon,
		Crash:          s.opts.Crash,
		Campaign:       cs.ID,
		Document:       cs.document,
		OnWake:         s.kickLeaseAsync,
		Logf:           logf,
	}, prep)
	if err != nil {
		fail(err)
		return
	}
	s.mu.Lock()
	if s.closed {
		// Close closes only published coordinators, so this one is
		// closed here; its journals stay resumable.
		s.mu.Unlock()
		_ = coord.Close()
		return
	}
	cs.coord = coord
	cs.handler = coord.Handler()
	cs.State = StateActive
	cs.StartedMs = s.appendJournalLocked(journalEvent{Op: "activate", ID: cs.ID})
	s.mu.Unlock()
	s.logf("service: %s active (%s/%s, %d jobs, tenant %s)",
		cs.ID, cs.Instance, cs.Tier, cs.Jobs, cs.Tenant)
	s.wg.Add(1)
	go s.monitor(cs)
	s.kickLease()
}

func (s *Service) coordDir(id string) string {
	return filepath.Join(s.opts.Dir, "campaigns", id, "coord")
}

// servedArtifacts are the files a served repeat copies from its
// source, besides the journal. They are copied, not linked, so later
// damage to the source never reaches the repeat.
var servedArtifacts = []string{"config.json", "metrics.json", "failures.md", "report.md"}

// serve finishes a repeat into dir from src, the finished campaign
// with the same config digest, and runs nothing. When src's result is
// in memory, src's journal is vetted — header digest, frame checksums,
// one record per settled run — and copied with src's artifacts, and
// the repeat shares that result. Otherwise src finished in an earlier
// process: its journal is copied, loaded, replayed into the adaptive
// planner and assembled with prep, once, and the result is kept on src
// for later repeats. A missing, torn, corrupt or foreign journal is an
// error.
func (s *Service) serve(src *campaignState, digest string, prep *runner.Prepared, dir string, logf func(string, ...any)) (*runner.RunResult, error) {
	srcDir := s.coordDir(src.ID)
	src.assembling.Lock()
	s.mu.Lock()
	res := src.result
	s.mu.Unlock()
	if res == nil {
		rr, err := assembleRepeat(prep, srcDir, dir, logf)
		if err == nil {
			kept := *rr
			kept.Dir = srcDir
			s.mu.Lock()
			src.result = &kept
			s.mu.Unlock()
		}
		src.assembling.Unlock()
		return rr, err
	}
	src.assembling.Unlock()

	path := runner.JournalPath(srcDir)
	journal, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	n, err := runner.CheckJournal(path, journal, digest)
	if err != nil {
		return nil, err
	}
	if settled := res.Metrics.ReplayedRuns + res.Metrics.ExecutedRuns; n != settled {
		return nil, fmt.Errorf("journal %s holds %d records, not the %d runs %s settled", path, n, settled, src.ID)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(runner.JournalPath(dir), journal, 0o644); err != nil {
		return nil, err
	}
	for _, name := range servedArtifacts {
		data, err := os.ReadFile(filepath.Join(srcDir, name))
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return nil, err
		}
	}
	rr := *res
	rr.Dir = dir
	return &rr, nil
}

// assembleRepeat assembles a campaign into dir from the record journal
// of the finished campaign under srcDir, which has the same config
// digest: the journal is copied, loaded under the header's digest
// check, replayed into the adaptive planner and assembled. Every run
// counts as replayed: the repeat executes none.
func assembleRepeat(prep *runner.Prepared, srcDir, dir string, logf func(string, ...any)) (*runner.RunResult, error) {
	data, err := os.ReadFile(runner.JournalPath(srcDir))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := os.WriteFile(runner.JournalPath(dir), data, 0o644); err != nil {
		return nil, err
	}
	recs, err := prep.LoadJournals(dir)
	if err != nil {
		return nil, err
	}
	var planner *campaign.AdaptivePlanner
	if prep.Info().Adaptive {
		if planner, err = prep.Planner(recs); err != nil {
			return nil, err
		}
	}
	return prep.Assemble(recs, planner, len(recs), runner.Timing{}, runner.Options{Dir: dir, Logf: logf})
}

// kickLeaseAsync is the coordinator OnWake hook. It runs with the
// coordinator's lock held, so the service-lock work hops to a
// goroutine — the lock order stays coordinator→service nowhere and
// service→coordinator nowhere.
func (s *Service) kickLeaseAsync() { go s.kickLease() }

// monitor waits out one active campaign and finishes it with its
// assembled result.
func (s *Service) monitor(cs *campaignState) {
	defer s.wg.Done()
	select {
	case <-cs.coord.Done():
	case <-s.done:
		return
	}
	rr, err := cs.coord.Assemble()
	s.finish(cs, "", rr, err)
}

// finish journals a campaign's terminal transition — a done one with
// its config digest, so a resumed service still serves its repeats,
// and the campaign it was served from, if any — and persists its
// report.
func (s *Service) finish(cs *campaignState, source string, rr *runner.RunResult, err error) {
	s.mu.Lock()
	if err != nil {
		cs.State = StateFailed
		cs.Error = err.Error()
		cs.DoneMs = s.appendJournalLocked(journalEvent{Op: "fail", ID: cs.ID, Error: cs.Error})
	} else {
		cs.State = StateDone
		cs.result = rr
		cs.Source = source
		if source == "" {
			s.finished[cs.digest] = cs.ID
		} else {
			s.served++
		}
		cs.DoneMs = s.appendJournalLocked(journalEvent{Op: "done", ID: cs.ID, Digest: cs.digest, Source: cs.Source})
	}
	s.mu.Unlock()
	if err != nil {
		s.logf("service: %s failed assembling: %v", cs.ID, err)
	} else {
		s.logf("service: %s done (%d runs, %d unique failures)",
			cs.ID, rr.Metrics.ReplayedRuns+rr.Metrics.ExecutedRuns, rr.Metrics.UniqueFailures)
		s.persistReport(cs)
	}
	s.kickPump()
	s.kickLease()
}

// persistReport content-addresses the assembled report into the
// store under campaign/<id>/report.md — shared, deduplicated (two
// bit-identical campaign outcomes store one blob), surviving the
// process.
func (s *Service) persistReport(cs *campaignState) {
	if s.opts.Store == nil {
		return
	}
	data, err := os.ReadFile(filepath.Join(s.coordDir(cs.ID), "report.md"))
	if err != nil {
		s.logf("service: %s: reading report for the store: %v", cs.ID, err)
		return
	}
	dig, err := s.opts.Store.PutBlob(data)
	if err != nil {
		s.logf("service: %s: storing report: %v", cs.ID, err)
		return
	}
	if err := s.opts.Store.SetRef("campaign/"+cs.ID+"/report.md", dig); err != nil {
		s.logf("service: %s: storing report ref: %v", cs.ID, err)
	}
}

// gcLoop periodically compacts the store: LRU memo eviction, journal
// snapshotting, orphan blob sweeping.
func (s *Service) gcLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.opts.GCInterval)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			if st, err := s.opts.Store.GC(); err != nil {
				s.logf("service: store gc: %v", err)
			} else {
				s.logf("service: store gc: %d entries kept, %d evicted, %d blobs swept",
					st.Entries, st.EvictedEntries, st.SweptBlobs)
			}
		}
	}
}

// Campaign returns one campaign's info.
func (s *Service) Campaign(id string) (CampaignInfo, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.campaigns[id]
	if cs == nil {
		return CampaignInfo{}, false
	}
	return cs.CampaignInfo, true
}

// Campaigns lists every campaign in submit order.
func (s *Service) Campaigns() []CampaignInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]CampaignInfo, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.campaigns[id].CampaignInfo)
	}
	return out
}

// Result returns a completed campaign's assembled result.
func (s *Service) Result(id string) (*runner.RunResult, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	cs := s.campaigns[id]
	if cs == nil || cs.result == nil {
		return nil, false
	}
	return cs.result, true
}

// deficitLocked is the fair-share key: jobs granted per unit of
// weight. The tenant with the lowest deficit leases next.
func (s *Service) deficitLocked(tenant string) float64 {
	w := s.opts.TenantWeights[tenant]
	if w <= 0 {
		w = 1
	}
	return float64(s.tenantGranted[tenant]) / float64(w)
}

// leaseCandidatesLocked snapshots the active campaigns ordered by
// tenant deficit (stable, so one tenant's campaigns keep submit
// order).
func (s *Service) leaseCandidatesLocked() []*campaignState {
	var cands []*campaignState
	for _, id := range s.order {
		cs := s.campaigns[id]
		if cs.State == StateActive && cs.coord != nil {
			cands = append(cands, cs)
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		return s.deficitLocked(cands[i].Tenant) < s.deficitLocked(cands[j].Tenant)
	})
	return cands
}

// Close stops the pump, the GC loop and every campaign monitor,
// closes the coordinators' files (their journals stay resumable) and
// the service journal. Parked worker long-polls answer StatusDone so
// an in-process fleet drains.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	s.kickLease()
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var errs []error
	for _, cs := range s.campaigns {
		if cs.coord != nil && (cs.State == StateActive || cs.State == StateActivating) {
			errs = append(errs, cs.coord.Close())
		}
	}
	return errors.Join(append(errs, s.journal.Close())...)
}
