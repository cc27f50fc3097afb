package distrib

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/runner"
	"propane/internal/wal"
)

// Config parameterises one coordinated campaign.
type Config struct {
	// Instance and Tier select the campaign from the registry. Both
	// sides resolve the name through their own registry; the config
	// digest guards against version skew.
	Instance string
	Tier     runner.Tier
	// Dir is the coordinator's artifact directory: the record journal,
	// the assignment journal, and — after completion — the assembled
	// config.json, metrics.json, failures.md and report.md.
	Dir string
	// Units sets the initial carve granularity: before any unit has
	// completed (no cost measurements yet), work units claim
	// ceil(TotalRuns/Units) jobs each. Once per-run cost is
	// measured, later units shrink to fit the lease TTL, so Units is a
	// floor on the unit count, not a fixed decomposition. <= 0 sizes
	// the count from the plan itself — one unit per 2*minCarveJobs
	// jobs, capped at 8 — so a small campaign is never shattered into
	// units whose per-unit fixed costs (scratch setup, golden-run
	// replay) exceed their useful work.
	Units int
	// LeaseTTL bounds how long a silent worker keeps a unit. Uploads
	// and heartbeats renew the lease; a worker silent for a full TTL is
	// presumed dead and its unit is reassigned. <= 0 selects 30 s.
	LeaseTTL time.Duration
	// Resume restores coordinator state from the journals under Dir
	// (records already received, the lease sequence) instead of
	// refusing to touch a non-empty directory. Units are not restored:
	// the resumed coordinator claims fresh units from the jobs its
	// record journal lacks.
	Resume bool
	// RunBudgetSteps arms the per-run watchdog fleet-wide; it is part
	// of the config digest, so workers apply the value carried in
	// their work unit.
	RunBudgetSteps int64
	// Adaptive selects sequential (CI-driven) sampling for the fleet:
	// the coordinator owns the campaign.AdaptivePlanner and claims work
	// units from its importance-ordered frontier instead of from the
	// job-index cursor. Like RunBudgetSteps it is part of the config
	// digest, and every WorkUnit carries the resolved mode so workers
	// digest identically.
	Adaptive campaign.AdaptiveMode
	// CIEpsilon is the adaptive stopping half-width (0 selects the
	// campaign default).
	CIEpsilon float64
	// Crash, when non-nil, arms deterministic crash points at the
	// labeled protocol sites (CrashPreLeaseGrant, CrashMidBatchAppend,
	// CrashPreCompleteAck). A fired site aborts its in-flight request
	// without a reply and flips the coordinator into a "crashed" state
	// where every request answers 503/"coordinator_crashed" until a
	// new coordinator resumes from the journals — the chaos harness's
	// stand-in for a SIGKILL, with the kill site pinned instead of
	// raced.
	Crash *chaos.Crashpoints
	// Logf receives lifecycle lines (nil discards).
	Logf func(format string, args ...any)
	// Campaign identifies this coordinator's campaign when a service
	// multiplexes several over one worker fleet (internal/service). It
	// is carried in LeaseResponse.Campaign (workers echo it as
	// HeaderCampaign for routing) and prefixes lease IDs, so two
	// campaigns can never mint colliding leases. Empty for a
	// single-campaign coordinator.
	Campaign string
	// Document is the declarative topology source behind Instance when
	// the instance was registered from an API-submitted document rather
	// than compiled in. It rides along in every WorkUnit so workers
	// that have never seen the document can compile and register it
	// themselves.
	Document string
	// OnWake, when non-nil, is invoked whenever parked lease requests
	// are released — a unit returned to the pending pool, or the
	// campaign completed. It is called with the coordinator's lock
	// held: it must not call back into the coordinator (typically it
	// just signals a channel). The service layer uses it to release
	// its own fleet-wide lease long-poll.
	OnWake func()
}

// Coordinator crash-point labels (see chaos.Crashpoints). Each marks
// the instant just before a state transition becomes externally
// visible, where a real crash is most likely to strand a client:
const (
	// CrashPreLeaseGrant fires after a unit is chosen but before the
	// lease is recorded or granted — the requester gets no reply and
	// the unit stays pending for the resumed coordinator.
	CrashPreLeaseGrant = "pre-lease-grant"
	// CrashMidBatchAppend fires inside a record batch after at least
	// one record hit the journal — the batch is half-durable and the
	// worker never learns which half.
	CrashMidBatchAppend = "mid-batch-append"
	// CrashPreCompleteAck fires after a unit settles but before the
	// completion is acknowledged — the worker retries a completion
	// the journals already contain.
	CrashPreCompleteAck = "pre-complete-ack"
)

const (
	defaultUnits    = 8
	defaultLeaseTTL = 30 * time.Second
	// leaseWaitMax bounds how long a lease request with no pending
	// unit parks inside the coordinator (long-poll). It must stay
	// comfortably under the worker HTTP client's 30 s timeout.
	leaseWaitMax = 10 * time.Second
	// leaseRetryMs is the retry hint returned when a long-poll times
	// out without work. One millisecond: the worker bounces straight
	// back into another long-poll — leasing is event-driven, the hint
	// only breaks a pathological tight loop against a broken client.
	leaseRetryMs = 1
	// minCarveJobs floors the cost-sized units, so a crash/hang-heavy
	// campaign (huge per-run cost) still amortises the per-unit fixed
	// costs (scratch setup, journal, checkpoint cache) over a
	// meaningful range.
	minCarveJobs = 16
	// carveTargetFloorMs floors the unit-duration target derived from
	// the lease TTL. Sub-second TTLs are test configurations; honoring
	// them literally would shatter the job space.
	carveTargetFloorMs = 1000
)

func (c *Config) normalise() error {
	if c.Instance == "" {
		return errors.New("distrib: no instance")
	}
	if c.Dir == "" {
		return errors.New("distrib: no artifact directory")
	}
	if c.Tier == "" {
		c.Tier = runner.TierQuick
	}
	if c.Units < 0 {
		c.Units = 0 // auto: sized from the plan in NewCoordinator
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = defaultLeaseTTL
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return nil
}

// unitState is the lease state machine: pending → leased → done, with
// leased → pending on expiry (the received records stay, so the next
// holder fast-forwards).
type unitState int

const (
	unitPending unitState = iota
	unitLeased
	unitDone
)

func (s unitState) String() string {
	switch s {
	case unitPending:
		return "pending"
	case unitLeased:
		return "leased"
	case unitDone:
		return "done"
	}
	return fmt.Sprintf("unitState(%d)", int(s))
}

// unit is one claimed work unit: an ascending list of job indices —
// the next unjournaled jobs from the cursor for full-matrix campaigns,
// a claim on the adaptive planner's frontier otherwise.
type unit struct {
	id       int
	jobs     []int // ascending
	state    unitState
	leaseID  string
	worker   string
	expires  time.Time
	attempts int  // times leased
	done     int  // jobs of the unit present in the record set
	reported int  // worker-reported local progress (heartbeats)
	acked    bool // a completion was acknowledged; its wall time counted
}

// has reports whether job belongs to the unit.
func (u *unit) has(job int) bool {
	i := sort.SearchInts(u.jobs, job)
	return i < len(u.jobs) && u.jobs[i] == job
}

// workerState is the coordinator's view of one fleet member.
type workerState struct {
	name     string
	lastSeen time.Time
	unit     int // leased unit's id, -1 when idle
	records  int
	outcomes map[string]int
}

// Coordinator carves a campaign into lease-bounded work units,
// collects the units' record sets (uploaded in batches before each
// unit's completion), and reassembles the result. All HTTP
// handlers and accessors are safe for concurrent use.
type Coordinator struct {
	cfg Config
	// prepared is the campaign's one golden pass and plan: the info,
	// the job index, the adaptive planner and the final assembly all
	// come from it. Guarded by mu; nil once assembled.
	prepared *runner.Prepared
	info     runner.PlanInfo
	// jobs checks uploads; unlike prepared it outlives assembly.
	jobs *campaign.JobIndex
	// planner owns the sequential sampling schedule for adaptive
	// campaigns (nil otherwise): units are claimed from its frontier,
	// accepted records feed Observe, and completion is planner.Done()
	// instead of full job-space coverage. Guarded by mu.
	planner *campaign.AdaptivePlanner

	mu    sync.Mutex
	units []*unit
	// nextJob is the full-matrix claim cursor: every unjournaled job
	// below it belongs to some unit.
	nextJob int
	byLease map[string]*unit
	workers map[string]*workerState
	// seen is the global record set, keyed by job index. The journal
	// mirrors it durably; on resume it is rebuilt from the journal.
	seen     map[int]runner.Record
	journal  *runner.Journal // lazily opened on first record
	leaseSeq int
	resumed  int // records restored from journals at startup
	received int // live records accepted from workers
	// msPerJob is the cost model: an EWMA of wall-milliseconds per
	// journaled run, fed by workers' completion reports. Pruned and
	// memoized runs take microseconds while crash/hang runs burn a
	// full watchdog budget; the measured average captures the mix
	// without modeling it.
	msPerJob float64
	start    time.Time
	// busy sums the wall time of acknowledged units as their workers
	// reported it: the assembled metrics' busy time.
	busy     time.Duration
	assign   *wal.Log
	complete bool
	// wake is closed (and replaced) whenever a unit returns to the
	// pending pool or the campaign completes, releasing lease requests
	// parked in handleLease's long-poll.
	wake chan struct{}
	// Equivalence-pruning counters aggregated across the fleet from
	// the received records' pruned labels.
	prunedRuns    int
	memoizedRuns  int
	storeMemoRuns int
	convergedRuns int

	// crashed flips when an armed crash point fires: every subsequent
	// request answers 503 until a resumed coordinator takes over.
	crashed bool
	// idem replays stored responses for duplicated /records and
	// /complete deliveries.
	idem idemStore

	done chan struct{}
}

// idemStore is a bounded FIFO map of idempotency key → stored
// response. Duplicated deliveries (retries after a lost reply,
// chaos-duplicated requests) replay the original response verbatim,
// making them true no-ops even for replies that carry counters.
type idemStore struct {
	mu      sync.Mutex
	entries map[string]idemEntry
	order   []string
}

type idemEntry struct {
	status int
	body   []byte
}

// idemStoreCap bounds the store; at one entry per in-flight batch the
// working set is tiny, so the cap only guards pathological clients.
const idemStoreCap = 1024

func (s *idemStore) get(key string) (idemEntry, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	return e, ok
}

func (s *idemStore) put(key string, e idemEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries == nil {
		s.entries = make(map[string]idemEntry)
	}
	if _, dup := s.entries[key]; dup {
		return
	}
	for len(s.order) >= idemStoreCap {
		delete(s.entries, s.order[0])
		s.order = s.order[1:]
	}
	s.entries[key] = e
	s.order = append(s.order, key)
}

// NewCoordinator prepares the campaign (its one golden pass pins the
// config digest and seeds the adaptive planner) and — with
// cfg.Resume — restores received records from the journals under
// cfg.Dir. Work units are claimed lazily as workers ask for them.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	prep, err := runner.PrepareInstance(cfg.Instance, cfg.Tier, runner.Options{
		RunBudgetSteps: cfg.RunBudgetSteps,
		Adaptive:       cfg.Adaptive,
		CIEpsilon:      cfg.CIEpsilon,
	})
	if err != nil {
		return nil, err
	}
	return NewPreparedCoordinator(cfg, prep)
}

// NewPreparedCoordinator is NewCoordinator over a campaign its caller
// already prepared, so the golden pass is not run twice. prep must be
// runner.PrepareInstance of cfg.Instance and cfg.Tier under cfg's
// RunBudgetSteps, Adaptive and CIEpsilon.
func NewPreparedCoordinator(cfg Config, prep *runner.Prepared) (*Coordinator, error) {
	if err := cfg.normalise(); err != nil {
		return nil, err
	}
	info := prep.Info()
	if info.Name != cfg.Instance || info.Tier != cfg.Tier {
		return nil, fmt.Errorf("distrib: prepared campaign %s/%s is not the configured %s/%s",
			info.Name, info.Tier, cfg.Instance, cfg.Tier)
	}
	if cfg.Units <= 0 {
		// Auto-size the initial carve from the plan: one unit per
		// 2*minCarveJobs jobs, capped at the classic default. A quick
		// campaign of a hundred-odd jobs gets ~3 units instead of 8 —
		// per-unit fixed costs (scratch setup, journal, checkpoint
		// cache) made a 4-worker fleet slower than one worker on such
		// plans.
		cfg.Units = info.TotalRuns / (2 * minCarveJobs)
		if cfg.Units > defaultUnits {
			cfg.Units = defaultUnits
		}
		if cfg.Units < 1 {
			cfg.Units = 1
		}
	}
	if cfg.Units > info.TotalRuns {
		cfg.Units = info.TotalRuns // no empty units
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("distrib: creating artifact dir: %w", err)
	}

	c := &Coordinator{
		cfg:      cfg,
		prepared: prep,
		info:     info,
		jobs:     prep.JobIndex(),
		byLease:  make(map[string]*unit),
		workers:  make(map[string]*workerState),
		seen:     make(map[int]runner.Record),
		start:    time.Now(),
		wake:     make(chan struct{}),
		done:     make(chan struct{}),
	}

	if err := c.openAssignmentLog(); err != nil {
		return nil, err
	}
	if err := c.restoreJournals(); err != nil {
		c.Close()
		return nil, err
	}
	if info.Adaptive {
		// The planner is a pure function of the config: a resumed
		// coordinator rebuilds the identical schedule and replays the
		// journaled records through it, reproducing every stopping
		// decision bit-identically; fresh units are claimed from
		// wherever the replayed schedule's frontier sits.
		planner, err := prep.Planner(c.seen)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("distrib: building adaptive schedule: %w", err)
		}
		c.planner = planner
	}
	c.maybeCompleteLocked()
	return c, nil
}

// initialCarve is the pre-cost-model unit size. Adaptive campaigns
// size against the fireable population (the realistic upper bound on
// executed jobs), not the full matrix the planner prunes.
func (c *Coordinator) initialCarve() int {
	total := c.info.TotalRuns
	if c.planner != nil {
		total = c.planner.Population()
	}
	size := (total + c.cfg.Units - 1) / c.cfg.Units
	if size < 1 {
		size = 1
	}
	return size
}

// restoreJournals rebuilds the record set from the journals — the
// journals, not the assignment log, are the source of truth for which
// work is done, so a coordinator crash between the two can never
// invent or lose records.
func (c *Coordinator) restoreJournals() error {
	recs, err := c.prepared.LoadJournals(c.cfg.Dir)
	if err != nil {
		return err
	}
	if len(recs) > 0 && !c.cfg.Resume {
		return fmt.Errorf("distrib: %s already journals %d runs — pass Resume to continue the campaign or use a fresh directory", c.cfg.Dir, len(recs))
	}
	c.seen = recs
	c.resumed = len(recs)
	for _, rec := range recs {
		c.countPruneLocked(rec)
	}
	if c.resumed > 0 {
		c.cfg.Logf("distrib: resumed %d/%d runs from journals under %s", c.resumed, c.info.TotalRuns, c.cfg.Dir)
	}
	return nil
}

// assignEvent is one frame of the assignment log — the coordinator's
// own log of the lease state machine. On resume only the assign
// events replay, restoring the lease sequence so lease IDs stay
// unique across restarts; the record journal alone decides which
// jobs are done.
type assignEvent struct {
	Type   string `json:"type"` // assign | expire | complete | campaign_complete
	TimeMs int64  `json:"time_ms"`
	Unit   int    `json:"unit,omitempty"`
	Worker string `json:"worker,omitempty"`
	Lease  string `json:"lease,omitempty"`
}

// assignFormat is the assignment log's header.
var assignFormat = wal.Header{Type: "header", Kind: "assignments", Version: 1}

// openAssignmentLog opens the assignment log for appending, replaying
// any existing assign events to restore the lease sequence. The log is
// not synced per append; the record journal is what must survive.
func (c *Coordinator) openAssignmentLog() error {
	legacy := filepath.Join(c.cfg.Dir, "assignments.jsonl")
	if _, err := os.Stat(legacy); err == nil {
		return fmt.Errorf("distrib: %s is a JSON-lines assignment log from an older build, which this one does not read "+
			"(the assignment log is now assignments.bin) — use a fresh directory", legacy)
	}
	path := filepath.Join(c.cfg.Dir, "assignments.bin")
	validLen, err := wal.Load(path, assignFormat, nil, func(payload []byte) error {
		var ev assignEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return err
		}
		if ev.Type == "assign" {
			c.leaseSeq++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("distrib: %w", err)
	}
	c.assign, err = wal.Open(path, assignFormat, validLen, 0)
	if err != nil {
		return fmt.Errorf("distrib: opening assignment log: %w", err)
	}
	return nil
}

// logAssignLocked appends one event to the assignment log. The record
// journal is authoritative, so an append failure here is logged, not
// fatal.
func (c *Coordinator) logAssignLocked(ev assignEvent) {
	ev.TimeMs = time.Now().UnixMilli()
	payload, err := json.Marshal(ev)
	if err == nil {
		err = c.assign.Append(payload)
	}
	if err != nil {
		c.cfg.Logf("distrib: assignment log append failed: %v", err)
	}
}

// Info returns the planned campaign's identity.
func (c *Coordinator) Info() runner.PlanInfo { return c.info }

// Done is closed once the whole job space is journaled.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// maybeCompleteLocked closes the done channel when the record set
// covers the whole job space — or, for adaptive campaigns, when the
// planner's schedule is complete (every location's stopping rule
// satisfied, which implies every claimed sample has settled).
func (c *Coordinator) maybeCompleteLocked() {
	if c.complete {
		return
	}
	if c.planner != nil {
		if !c.planner.Done() {
			return
		}
	} else if len(c.seen) != c.info.TotalRuns {
		return
	}
	c.complete = true
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			c.cfg.Logf("distrib: closing record journal: %v", err)
		}
		c.journal = nil
	}
	c.logAssignLocked(assignEvent{Type: "campaign_complete"})
	if c.assign != nil {
		_ = c.assign.Sync()
	}
	c.cfg.Logf("distrib: campaign %s/%s complete — %d runs journaled in %d units",
		c.cfg.Instance, c.cfg.Tier, len(c.seen), len(c.units))
	c.wakeLocked() // parked lease requests answer StatusDone immediately
	close(c.done)
}

// wakeLocked releases every lease request parked in handleLease's
// long-poll; they re-examine the pool under the lock.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
	if c.cfg.OnWake != nil {
		c.cfg.OnWake()
	}
}

// deadLocked answers 503/CodeCrashed when a crash point has fired.
// The post middleware gates new requests, but a request already past
// the gate (or parked in the lease long-poll) when the crash fires
// must not mutate state either — a dead process appends nothing.
// Handlers call this immediately after taking c.mu (the caller keeps
// responsibility for unlocking); crashed is only written under c.mu,
// so the check is exact.
func (c *Coordinator) deadLocked(w http.ResponseWriter) bool {
	if !c.crashed {
		return false
	}
	httpErrorCode(w, http.StatusServiceUnavailable, CodeCrashed,
		"coordinator crashed at a chaos crash point; awaiting resume")
	return true
}

// hitCrashLocked checks an armed chaos crash point. When the site
// fires, the coordinator flips into the crashed state — every later
// request answers 503/CodeCrashed — and the in-flight handler aborts
// via http.ErrAbortHandler, so the client sees a reset connection and
// no reply: exactly the signature of a process killed at this
// instruction. Whatever was already journaled stays journaled; a new
// coordinator resuming from the directory is the only way forward.
func (c *Coordinator) hitCrashLocked(label string) {
	if c.cfg.Crash.Hit(label) {
		c.crashLocked(label)
	}
}

// crashLocked is the death of a fired crash point.
func (c *Coordinator) crashLocked(label string) {
	c.crashed = true
	c.cfg.Logf("distrib: chaos crash point %q fired — coordinator dead until resumed", label)
	panic(http.ErrAbortHandler)
}

// sweepLocked expires overdue leases, returning their units to the
// pending pool with all received records retained.
func (c *Coordinator) sweepLocked(now time.Time) {
	expired := false
	for _, u := range c.units {
		if u.state != unitLeased || now.Before(u.expires) {
			continue
		}
		c.cfg.Logf("distrib: lease %s (unit %d, worker %s) expired — reassigning with %d/%d runs already journaled",
			u.leaseID, u.id, u.worker, u.done, len(u.jobs))
		c.releaseLocked(u)
		expired = true
	}
	if expired {
		c.wakeLocked()
	}
}

// releaseLocked ends a unit's lease — expired, or revoked on a
// completion that left gaps — and returns the unit to the pending pool
// with all received records retained. The caller wakes parked lease
// requests.
func (c *Coordinator) releaseLocked(u *unit) {
	delete(c.byLease, u.leaseID)
	c.logAssignLocked(assignEvent{Type: "expire", Unit: u.id, Worker: u.worker, Lease: u.leaseID})
	if ws := c.workers[u.worker]; ws != nil && ws.unit == u.id {
		ws.unit = -1
	}
	u.state = unitPending
	u.leaseID = ""
	u.worker = ""
	u.reported = 0
}

// nextExpiryLocked returns the earliest live-lease expiry, so an idle
// long-poll wakes in time to claim a unit its holder abandoned.
func (c *Coordinator) nextExpiryLocked() (time.Time, bool) {
	var next time.Time
	found := false
	for _, u := range c.units {
		if u.state != unitLeased {
			continue
		}
		if !found || u.expires.Before(next) {
			next = u.expires
			found = true
		}
	}
	return next, found
}

// touchWorkerLocked records fleet-member liveness.
func (c *Coordinator) touchWorkerLocked(name string, now time.Time) *workerState {
	ws := c.workers[name]
	if ws == nil {
		ws = &workerState{name: name, unit: -1, outcomes: make(map[string]int)}
		c.workers[name] = ws
	}
	ws.lastSeen = now
	return ws
}

// carveSizeLocked sizes the next unit. Before any completion report,
// the initial granularity (Config.Units) applies; afterwards the
// measured per-run cost shrinks units toward half the lease TTL, so a
// unit full of watchdog-budget hangs cannot become the straggler that
// serialises the tail.
func (c *Coordinator) carveSizeLocked() int {
	size := c.initialCarve()
	if c.msPerJob > 0 {
		target := float64(c.cfg.LeaseTTL.Milliseconds()) / 2
		if target < carveTargetFloorMs {
			target = carveTargetFloorMs
		}
		byCost := int(target/c.msPerJob + 0.5)
		if byCost < minCarveJobs {
			byCost = minCarveJobs
		}
		if byCost < size {
			size = byCost
		}
	}
	return size
}

// claimLocked registers the next unit: up to carveSizeLocked() jobs
// the record set lacks, taken from the cursor for full-matrix
// campaigns and from the planner's frontier for adaptive ones. Claims
// are never journaled — a resumed coordinator claims afresh from
// whatever its record journal lacks. Returns nil when nothing is left
// to claim. For adaptive campaigns that is a statement about the
// planner's current checkpoints, not the job space: settling
// in-flight records can double a location's checkpoint and open new
// claims, so accepting a batch wakes parked lease requests to re-try
// the claim.
func (c *Coordinator) claimLocked() *unit {
	size := c.carveSizeLocked()
	var jobs []int
	if c.planner != nil {
		jobs = c.planner.Claim(size)
		sort.Ints(jobs)
	} else {
		for ; c.nextJob < c.info.TotalRuns && len(jobs) < size; c.nextJob++ {
			if _, ok := c.seen[c.nextJob]; !ok {
				jobs = append(jobs, c.nextJob)
			}
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	u := &unit{id: len(c.units), jobs: jobs}
	c.units = append(c.units, u)
	return u
}

// pickLocked returns the lowest pending unit, claiming a fresh one when
// none is pending; nil when nothing is grantable right now.
func (c *Coordinator) pickLocked() *unit {
	for _, u := range c.units {
		if u.state == unitPending {
			return u
		}
	}
	return c.claimLocked()
}

// observeCostLocked feeds one completed unit's measured cost into the
// EWMA (a report without wall time or runs carries no signal).
func (c *Coordinator) observeCostLocked(wallMs int64, runs int) {
	if wallMs <= 0 || runs <= 0 {
		return
	}
	sample := float64(wallMs) / float64(runs)
	if c.msPerJob == 0 {
		c.msPerJob = sample
		return
	}
	c.msPerJob = 0.5*c.msPerJob + 0.5*sample
}

// settleLocked marks a unit done. The lease stays resolvable so the
// worker's trailing complete call succeeds instead of 409ing.
func (c *Coordinator) settleLocked(u *unit) {
	u.state = unitDone
	c.logAssignLocked(assignEvent{Type: "complete", Unit: u.id, Worker: u.worker, Lease: u.leaseID})
	if ws := c.workers[u.worker]; ws != nil && ws.unit == u.id {
		ws.unit = -1
	}
	c.cfg.Logf("distrib: unit %d complete (%d runs, worker %s)", u.id, len(u.jobs), u.worker)
	c.maybeCompleteLocked()
}

// countPruneLocked aggregates a record's pruned label into the fleet
// counters (empty for executed runs).
func (c *Coordinator) countPruneLocked(rec runner.Record) {
	switch rec.Pruned {
	case campaign.PrunedNoOp, campaign.PrunedUnfired:
		c.prunedRuns++
	case campaign.PrunedMemoized:
		c.memoizedRuns++
	case campaign.PrunedMemoStore:
		c.memoizedRuns++
		c.storeMemoRuns++
	case campaign.PrunedConverged:
		c.convergedRuns++
	}
}

// handleLease assigns the lowest pending unit to the requester,
// claiming a fresh one when none is pending (pickLocked). With no
// pending unit and nothing left to claim it long-polls: the request
// parks (up to leaseWaitMax, well under the worker client's timeout)
// until a unit returns to the pool or the campaign completes, instead
// of bouncing the worker into a sleep/retry loop. A worker therefore
// never sleeps while work is available — leasing is entirely
// event-driven.
func (c *Coordinator) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding lease request: %v", err)
		return
	}
	if req.Worker == "" {
		httpError(w, http.StatusBadRequest, "lease request names no worker")
		return
	}
	now := time.Now()
	deadline := now.Add(leaseWaitMax)
	c.mu.Lock()
	var pick *unit
	for {
		if c.deadLocked(w) {
			c.mu.Unlock()
			return
		}
		now = time.Now()
		c.sweepLocked(now)
		c.touchWorkerLocked(req.Worker, now)

		if c.complete {
			c.mu.Unlock()
			writeJSON(w, LeaseResponse{Status: StatusDone, Campaign: c.cfg.Campaign})
			return
		}
		if pick = c.pickLocked(); pick != nil {
			break
		}
		// Nothing pending and nothing left to claim: park until a
		// wake, the next lease expiry (plus a sweep margin), or the
		// long-poll deadline.
		wait := time.Until(deadline)
		if next, ok := c.nextExpiryLocked(); ok {
			if d := time.Until(next) + 10*time.Millisecond; d < wait {
				wait = d
			}
		}
		if wait <= 0 {
			c.mu.Unlock()
			writeJSON(w, LeaseResponse{Status: StatusWait, RetryMs: leaseRetryMs, Campaign: c.cfg.Campaign})
			return
		}
		wake := c.wake
		c.mu.Unlock()
		t := time.NewTimer(wait)
		select {
		case <-wake:
		case <-t.C:
		case <-r.Context().Done():
			t.Stop()
			return // client gone; nothing was leased
		}
		t.Stop()
		c.mu.Lock()
	}
	defer c.mu.Unlock()
	writeJSON(w, c.grantLocked(pick, req.Worker, now))
}

// grantLocked leases pick to worker and builds the unit response —
// the single grant path shared by handleLease and TryLease, so lease
// IDs, journaling and the crash point behave identically however the
// unit was dispatched. When Config.Campaign is set the lease ID is
// prefixed with it: two coordinators multiplexed behind one service
// can never mint colliding leases.
func (c *Coordinator) grantLocked(pick *unit, worker string, now time.Time) LeaseResponse {
	c.hitCrashLocked(CrashPreLeaseGrant)
	c.leaseSeq++
	prefix := ""
	if c.cfg.Campaign != "" {
		prefix = c.cfg.Campaign + "-"
	}
	pick.state = unitLeased
	pick.leaseID = fmt.Sprintf("%sL%04d-u%d", prefix, c.leaseSeq, pick.id)
	pick.worker = worker
	pick.expires = now.Add(c.cfg.LeaseTTL)
	pick.attempts++
	pick.reported = 0
	c.byLease[pick.leaseID] = pick
	ws := c.workers[worker]
	ws.unit = pick.id
	c.logAssignLocked(assignEvent{Type: "assign", Unit: pick.id, Worker: worker, Lease: pick.leaseID})
	c.cfg.Logf("distrib: leased unit %d to %s (%s, attempt %d, %d/%d runs pre-journaled)",
		pick.id, worker, pick.leaseID, pick.attempts, pick.done, len(pick.jobs))

	var doneJobs []int
	for _, job := range pick.jobs {
		if _, ok := c.seen[job]; ok {
			doneJobs = append(doneJobs, job)
		}
	}
	return LeaseResponse{
		Status:   StatusUnit,
		LeaseID:  pick.leaseID,
		TTLMs:    c.cfg.LeaseTTL.Milliseconds(),
		Campaign: c.cfg.Campaign,
		Unit: &WorkUnit{
			Instance:       c.cfg.Instance,
			Tier:           string(c.cfg.Tier),
			ConfigDigest:   c.info.Digest,
			Unit:           pick.id,
			JobList:        pick.jobs,
			TotalRuns:      c.info.TotalRuns,
			RunBudgetSteps: c.cfg.RunBudgetSteps,
			Adaptive:       c.info.Adaptive,
			CIEpsilon:      c.info.CIEpsilon,
			DoneJobs:       doneJobs,
			Document:       c.cfg.Document,
		},
	}
}

// TryLease is the non-blocking form of the lease endpoint, for a
// service multiplexing several coordinators over one worker fleet: it
// either grants a unit immediately or reports that none is grantable
// right now — campaign complete (watch Done for that), coordinator
// crashed at a chaos point, nothing left to claim with every unit
// leased out. The caller parks fleet-wide across campaigns using
// NextExpiry and Config.OnWake instead of this coordinator's own
// long-poll.
func (c *Coordinator) TryLease(worker string) (LeaseResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.crashed || c.complete {
		return LeaseResponse{}, false
	}
	now := time.Now()
	c.sweepLocked(now)
	c.touchWorkerLocked(worker, now)
	pick := c.pickLocked()
	if pick == nil {
		return LeaseResponse{}, false
	}
	return c.grantLocked(pick, worker, now), true
}

// NextExpiry returns the earliest live-lease expiry, if any — the
// service's fleet-wide park wakes then to re-try a lease a worker may
// have abandoned.
func (c *Coordinator) NextExpiry() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nextExpiryLocked()
}

// leaseLocked resolves a live lease, sweeping expiries first.
func (c *Coordinator) leaseLocked(id string, now time.Time) (*unit, error) {
	c.sweepLocked(now)
	u := c.byLease[id]
	if u == nil || u.leaseID != id {
		return nil, fmt.Errorf("unknown or expired lease %q", id)
	}
	return u, nil
}

// handleRecords ingests one record batch — the bulk upload before a
// unit's completion — renewing the lease. Validation is
// two-pass: the whole batch is checked before anything is journaled,
// so a hostile or wire-damaged batch can never partially journal (the
// all-or-nothing guarantee FuzzProtocol asserts). The fresh records
// then journal with a single write. The body must be a binary frame:
// any other Content-Type answers 415 unread.
func (c *Coordinator) handleRecords(w http.ResponseWriter, r *http.Request) {
	if ct := r.Header.Get("Content-Type"); !strings.HasPrefix(ct, ContentTypeBinary) {
		httpError(w, http.StatusUnsupportedMediaType, "record batches must be %s frames, got Content-Type %q", ContentTypeBinary, ct)
		return
	}
	data, err := io.ReadAll(r.Body)
	var batch RecordBatch
	if err == nil {
		batch, err = decodeRecordBatch(data)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "decoding record batch: %v", err)
		return
	}
	// The decoded records come from the decode pool; everything kept
	// below is copied out of them.
	defer releaseRecords(batch.Records)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	u, err := c.leaseLocked(batch.LeaseID, now)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if u.state == unitLeased {
		u.expires = now.Add(c.cfg.LeaseTTL)
	}
	ws := c.touchWorkerLocked(u.worker, now)

	resp := BatchResponse{}
	fresh := make([]runner.Record, 0, len(batch.Records))
	inBatch := make(map[int]runner.Record, len(batch.Records))
	for _, rec := range batch.Records {
		// Assembly and the adaptive schedule key every record by job: a
		// record they cannot parse, or whose job disagrees with its
		// content, must be refused before anything journals.
		inj, err := rec.Injection()
		if err != nil {
			httpError(w, http.StatusBadRequest, "record rejected: %v", err)
			return
		}
		if job, ok := c.jobs.Job(inj, rec.Case); !ok || job != rec.Job {
			httpError(w, http.StatusBadRequest, "record rejected: job %d does not match its content (%v case %d)", rec.Job, inj, rec.Case)
			return
		}
		// A record the coordinator already holds is verified against
		// it and journals nothing, whichever lease carries it: a batch
		// re-uploaded after a restart re-carved the units answers with
		// duplicates. Only fresh records must belong to the unit.
		prev, dup := c.seen[rec.Job]
		if !dup {
			prev, dup = inBatch[rec.Job]
		}
		if dup {
			if !runner.RecordsEqual(prev, rec) {
				httpError(w, http.StatusConflict, "job %d already journaled with different content: %v",
					rec.Job, runner.ErrConflictingRecords)
				return
			}
			resp.Duplicates++
			continue
		}
		if !u.has(rec.Job) {
			httpError(w, http.StatusBadRequest, "record rejected: job %d outside unit %d", rec.Job, u.id)
			return
		}
		inBatch[rec.Job] = rec
		fresh = append(fresh, rec)
	}
	if len(fresh) > 0 {
		if c.journal == nil {
			j, err := runner.OpenJournal(c.cfg.Dir, runner.JournalHeader{
				Instance:     c.cfg.Instance,
				Tier:         string(c.cfg.Tier),
				ConfigDigest: c.info.Digest,
			})
			if err != nil {
				httpError(w, http.StatusInternalServerError, "opening record journal: %v", err)
				return
			}
			c.journal = j
		}
		// The mid-batch-append crash point: when it fires, only the
		// first half of the batch reaches the journal before the
		// coordinator dies — the half-durable batch whose worker never
		// learns which half landed.
		torn := c.cfg.Crash.Hit(CrashMidBatchAppend)
		if torn {
			fresh = fresh[:(len(fresh)+1)/2]
		}
		if err := c.journal.AppendBatch(fresh); err != nil {
			httpError(w, http.StatusInternalServerError, "journaling batch: %v", err)
			return
		}
		for _, rec := range fresh {
			c.acceptLocked(u, ws, rec)
		}
		resp.Accepted = len(fresh)
		if torn {
			c.crashLocked(CrashMidBatchAppend)
		}
	}
	if u.state == unitLeased && u.done == len(u.jobs) {
		c.settleLocked(u)
	}
	if c.planner != nil && resp.Accepted > 0 && !c.complete {
		// Settled samples may have doubled a location's checkpoint:
		// claims that were empty a moment ago can be live now, so parked
		// lease requests must re-try the carve.
		c.wakeLocked()
	}
	resp.UnitDone = u.state == unitDone
	writeJSON(w, resp)
}

// acceptLocked folds one freshly journaled record into the in-memory
// state — and, for adaptive campaigns, into the planner, where it
// advances the owning location's settled prefix and may trigger a
// checkpoint evaluation (stop, or double the checkpoint and open new
// claims).
func (c *Coordinator) acceptLocked(u *unit, ws *workerState, rec runner.Record) {
	c.seen[rec.Job] = rec
	c.received++
	u.done++
	c.countPruneLocked(rec)
	ws.records++
	ws.outcomes[rec.Outcome]++
	if c.planner != nil {
		// The job passed the unit-membership gate, the unit's list came
		// from Claim, and duplicates were filtered — Observe can only
		// fail on a coordinator logic error, which must be loud.
		rr, err := rec.RunRecord()
		if err == nil {
			err = c.planner.Observe(rr)
		}
		if err != nil {
			c.cfg.Logf("distrib: BUG: accepted record rejected by adaptive schedule: %v", err)
		}
	}
}

// handleHeartbeat renews a lease and records the worker's local
// progress.
func (c *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding heartbeat: %v", err)
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	u, err := c.leaseLocked(req.LeaseID, now)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	if u.state == unitLeased {
		u.expires = now.Add(c.cfg.LeaseTTL)
		if req.Done > u.reported {
			u.reported = req.Done
		}
	}
	c.touchWorkerLocked(u.worker, now)
	writeJSON(w, HeartbeatResponse{TTLMs: c.cfg.LeaseTTL.Milliseconds()})
}

// handleComplete finishes a unit from the worker's side, after its
// records uploaded. Units settle coordinator-side the moment their last
// record is journaled, so a completion against a settled unit is
// acknowledged, and one against a unit that still has gaps revokes the
// lease: the worker cannot help further, and the gap re-executes
// elsewhere.
func (c *Coordinator) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req CompleteRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "decoding complete: %v", err)
		return
	}
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deadLocked(w) {
		return
	}
	u, err := c.leaseLocked(req.LeaseID, now)
	if err != nil {
		httpError(w, http.StatusConflict, "%v", err)
		return
	}
	ws := c.touchWorkerLocked(u.worker, now)
	c.observeCostLocked(req.WallMs, req.Runs)
	if u.state != unitDone {
		c.cfg.Logf("distrib: worker %s reported unit %d complete with %d/%d runs journaled — revoking lease",
			u.worker, u.id, u.done, len(u.jobs))
		c.releaseLocked(u)
		c.wakeLocked()
		httpError(w, http.StatusConflict, "unit %d has %d of %d runs journaled — lease revoked", u.id, u.done, len(u.jobs))
		return
	}
	if !u.acked {
		u.acked = true
		c.busy += time.Duration(req.WallMs) * time.Millisecond
	}
	c.cfg.Logf("distrib: worker %s completed unit %d (%d runs, %d ms); its outcomes so far %v; fleet pruned %d, memoized %d, converged %d",
		u.worker, u.id, req.Runs, req.WallMs, ws.outcomes, c.prunedRuns, c.memoizedRuns, c.convergedRuns)
	c.hitCrashLocked(CrashPreCompleteAck)
	writeJSON(w, CompleteResponse{CampaignDone: c.complete})
}

// UnitStatus is the /status view of one work unit.
type UnitStatus struct {
	Unit     int    `json:"unit"`
	State    string `json:"state"`
	Worker   string `json:"worker,omitempty"`
	Lease    string `json:"lease,omitempty"`
	DoneRuns int    `json:"done_runs"`
	// Reported is the lease holder's own progress claim (heartbeats);
	// DoneRuns counts records the coordinator actually holds.
	Reported int `json:"reported,omitempty"`
	Jobs     int `json:"jobs"`
	Attempts int `json:"attempts"`
}

// WorkerStatus is the /status and /metrics view of one fleet member.
type WorkerStatus struct {
	Name          string         `json:"name"`
	Unit          int            `json:"unit"` // -1 when idle
	Records       int            `json:"records"`
	Outcomes      map[string]int `json:"outcomes,omitempty"`
	LastSeenMsAgo int64          `json:"last_seen_ms_ago"`
	Live          bool           `json:"live"`
}

// Status is the /status JSON document.
type Status struct {
	Instance     string `json:"instance"`
	Tier         string `json:"tier"`
	ConfigDigest string `json:"config_digest"`
	// Units counts the units claimed so far; UncarvedJobs counts the
	// unjournaled jobs no unit holds yet (0 for adaptive campaigns,
	// whose frontier is discovered checkpoint by checkpoint — see
	// ScheduledRuns).
	Units        int  `json:"units"`
	UncarvedJobs int  `json:"uncarved_jobs"`
	Pending      int  `json:"pending"`
	Leased       int  `json:"leased"`
	Done         int  `json:"done"`
	TotalRuns    int  `json:"total_runs"`
	DoneRuns     int  `json:"done_runs"`
	Complete     bool `json:"complete"`
	// Adaptive campaigns: PopulationRuns is the fireable sample count
	// (the upper bound on executed jobs), ScheduledRuns the samples the
	// stopping rule has asked for so far.
	Adaptive       bool           `json:"adaptive,omitempty"`
	PopulationRuns int            `json:"population_runs,omitempty"`
	ScheduledRuns  int            `json:"scheduled_runs,omitempty"`
	UnitsDetail    []UnitStatus   `json:"units_detail"`
	Workers        []WorkerStatus `json:"workers"`
}

// Metrics is the /metrics JSON document: fleet throughput and
// utilisation for dashboards and the scale-out benchmarks.
type Metrics struct {
	Instance       string  `json:"instance"`
	Tier           string  `json:"tier"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	TotalRuns      int     `json:"total_runs"`
	DoneRuns       int     `json:"done_runs"`
	ResumedRuns    int     `json:"resumed_runs"`
	ReceivedRuns   int     `json:"received_runs"`
	// ReportedRuns sums the live leases' worker-reported progress —
	// work done but not yet uploaded (records stay worker-side until
	// the unit has finished executing).
	ReportedRuns int `json:"reported_runs,omitempty"`
	// MsPerRun is the cost model's current estimate (0 until the
	// first unit completes).
	MsPerRun float64 `json:"ms_per_run,omitempty"`
	// Fleet-wide equivalence-pruning counters (from the records'
	// pruned labels): proven without simulating, served from a memo,
	// and stopped early on golden or sibling reconvergence.
	PrunedRuns   int `json:"pruned_runs,omitempty"`
	MemoizedRuns int `json:"memoized_runs,omitempty"`
	// StoreMemoRuns is the subset of MemoizedRuns served from a
	// persistent memo store — results executed by an earlier
	// campaign, possibly in another process or for another tenant.
	StoreMemoRuns int     `json:"store_memo_runs,omitempty"`
	ConvergedRuns int     `json:"converged_runs,omitempty"`
	RunsPerSecond float64 `json:"runs_per_second"`
	ETASeconds    float64 `json:"eta_seconds"`
	UnitsPending  int     `json:"units_pending"`
	UnitsLeased   int     `json:"units_leased"`
	UnitsDone     int     `json:"units_done"`
	LiveWorkers   int     `json:"live_workers"`
	// FleetUtilization is the fraction of live workers currently
	// holding a lease.
	FleetUtilization float64 `json:"fleet_utilization"`
	// Adaptive campaigns: the fireable population and the samples the
	// stopping rule has asked for so far (see Status).
	Adaptive       bool           `json:"adaptive,omitempty"`
	PopulationRuns int            `json:"population_runs,omitempty"`
	ScheduledRuns  int            `json:"scheduled_runs,omitempty"`
	Complete       bool           `json:"complete"`
	Workers        []WorkerStatus `json:"workers"`
}

// workerLiveWindow is how long after its last contact a worker still
// counts as part of the fleet.
func (c *Coordinator) workerLiveWindow() time.Duration { return 3 * c.cfg.LeaseTTL }

func (c *Coordinator) workersLocked(now time.Time) []WorkerStatus {
	names := make([]string, 0, len(c.workers))
	for name := range c.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]WorkerStatus, 0, len(names))
	for _, name := range names {
		ws := c.workers[name]
		outcomes := make(map[string]int, len(ws.outcomes))
		for k, v := range ws.outcomes {
			outcomes[k] = v
		}
		out = append(out, WorkerStatus{
			Name:          ws.name,
			Unit:          ws.unit,
			Records:       ws.records,
			Outcomes:      outcomes,
			LastSeenMsAgo: now.Sub(ws.lastSeen).Milliseconds(),
			Live:          now.Sub(ws.lastSeen) <= c.workerLiveWindow(),
		})
	}
	return out
}

// Status snapshots the fleet (also served at /status).
func (c *Coordinator) Status() Status {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	s := Status{
		Instance:     c.cfg.Instance,
		Tier:         string(c.cfg.Tier),
		ConfigDigest: c.info.Digest,
		Units:        len(c.units),
		UncarvedJobs: c.info.TotalRuns - len(c.seen),
		TotalRuns:    c.info.TotalRuns,
		DoneRuns:     len(c.seen),
		Complete:     c.complete,
		Workers:      c.workersLocked(now),
	}
	if c.planner != nil {
		st := c.planner.Stats()
		s.Adaptive = true
		s.UncarvedJobs = 0
		s.PopulationRuns = st.Population
		s.ScheduledRuns = st.Scheduled
	}
	for _, u := range c.units {
		if c.planner == nil {
			s.UncarvedJobs -= len(u.jobs) - u.done
		}
		switch u.state {
		case unitPending:
			s.Pending++
		case unitLeased:
			s.Leased++
		case unitDone:
			s.Done++
		}
		s.UnitsDetail = append(s.UnitsDetail, UnitStatus{
			Unit:     u.id,
			State:    u.state.String(),
			Worker:   u.worker,
			Lease:    u.leaseID,
			DoneRuns: u.done,
			Reported: u.reported,
			Jobs:     len(u.jobs),
			Attempts: u.attempts,
		})
	}
	return s
}

// Metrics snapshots fleet throughput (also served at /metrics).
func (c *Coordinator) Metrics() Metrics {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked(now)
	m := Metrics{
		Instance:       c.cfg.Instance,
		Tier:           string(c.cfg.Tier),
		ElapsedSeconds: now.Sub(c.start).Seconds(),
		TotalRuns:      c.info.TotalRuns,
		DoneRuns:       len(c.seen),
		ResumedRuns:    c.resumed,
		ReceivedRuns:   c.received,
		MsPerRun:       c.msPerJob,
		PrunedRuns:     c.prunedRuns,
		MemoizedRuns:   c.memoizedRuns,
		StoreMemoRuns:  c.storeMemoRuns,
		ConvergedRuns:  c.convergedRuns,
		Complete:       c.complete,
		Workers:        c.workersLocked(now),
	}
	if c.planner != nil {
		st := c.planner.Stats()
		m.Adaptive = true
		m.PopulationRuns = st.Population
		m.ScheduledRuns = st.Scheduled
	}
	for _, u := range c.units {
		switch u.state {
		case unitPending:
			m.UnitsPending++
		case unitLeased:
			m.UnitsLeased++
			if extra := u.reported - u.done; extra > 0 {
				m.ReportedRuns += extra
			}
		case unitDone:
			m.UnitsDone++
		}
	}
	for _, ws := range m.Workers {
		if ws.Live {
			m.LiveWorkers++
		}
	}
	if m.ElapsedSeconds > 0 {
		m.RunsPerSecond = float64(m.ReceivedRuns) / m.ElapsedSeconds
	}
	remaining := m.TotalRuns - m.DoneRuns
	if c.planner != nil {
		// The adaptive frontier is discovered checkpoint by checkpoint;
		// the in-flight claims are the only honest remaining-work figure.
		remaining = c.planner.Outstanding()
	}
	if remaining > 0 && m.RunsPerSecond > 0 {
		m.ETASeconds = float64(remaining) / m.RunsPerSecond
	}
	if m.LiveWorkers > 0 {
		m.FleetUtilization = float64(m.UnitsLeased) / float64(m.LiveWorkers)
		if m.FleetUtilization > 1 {
			m.FleetUtilization = 1
		}
	}
	return m
}

// maxRequestBody bounds a POST body. The largest legitimate request
// is a whole unit's record upload (gzip-framed); 64 MiB is an order
// of magnitude above anything the fleet produces and still refuses a
// hostile unbounded stream.
const maxRequestBody = 64 << 20

// responseRecorder tees a handler's reply into a buffer so the
// idempotency store can replay it for duplicated deliveries.
type responseRecorder struct {
	http.ResponseWriter
	status int
	buf    bytes.Buffer
}

func (r *responseRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *responseRecorder) Write(b []byte) (int, error) {
	r.buf.Write(b)
	return r.ResponseWriter.Write(b)
}

// post hardens one POST handler: method gate, crashed-state gate,
// bounded body read, content-digest verification (a body damaged in
// flight — chaos truncate/corrupt, or any real middlebox mangling —
// is rejected with the retryable CodeBodyDigest before the handler
// sees it), and, when idempotent, duplicate-delivery replay from the
// idempotency store. The digest covers the raw body regardless of
// encoding, so binary frames are wire-protected exactly like JSON.
func (c *Coordinator) post(idempotent bool, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		c.mu.Lock()
		dead := c.crashed
		c.mu.Unlock()
		if dead {
			httpErrorCode(w, http.StatusServiceUnavailable, CodeCrashed,
				"coordinator crashed at a chaos crash point; awaiting resume")
			return
		}
		body, err := io.ReadAll(io.LimitReader(r.Body, maxRequestBody+1))
		if err != nil {
			// A short or broken read is wire damage, not a client
			// bug: the sender's copy is intact, so mark it retryable.
			httpErrorCode(w, http.StatusBadRequest, CodeBodyDigest, "reading request body: %v", err)
			return
		}
		if len(body) > maxRequestBody {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBody)
			return
		}
		if want := r.Header.Get(HeaderBodyDigest); want != "" {
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != want {
				httpErrorCode(w, http.StatusBadRequest, CodeBodyDigest,
					"request body digest %s does not match header %s — body damaged in flight", got, want)
				return
			}
		}
		r.Body = io.NopCloser(bytes.NewReader(body))

		key := r.Header.Get(HeaderIdempotencyKey)
		if !idempotent || key == "" {
			h(w, r)
			return
		}
		key = r.URL.Path + "|" + key
		if e, ok := c.idem.get(key); ok {
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set(HeaderIdempotentReplay, "1")
			w.WriteHeader(e.status)
			_, _ = w.Write(e.body)
			return
		}
		rec := &responseRecorder{ResponseWriter: w, status: http.StatusOK}
		h(rec, r)
		// Store every terminal answer (including deterministic 4xx);
		// 5xx replies are transient server trouble and must re-execute.
		if rec.status < 500 {
			c.idem.put(key, idemEntry{status: rec.status, body: bytes.Clone(rec.buf.Bytes())})
		}
	}
}

// Handler returns the coordinator's HTTP API.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(PathLease, c.post(false, c.handleLease))
	mux.HandleFunc(PathRecords, c.post(true, c.handleRecords))
	mux.HandleFunc(PathHeartbeat, c.post(false, c.handleHeartbeat))
	mux.HandleFunc(PathComplete, c.post(true, c.handleComplete))
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Status())
	})
	mux.HandleFunc(PathMetrics, func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.Metrics())
	})
	return mux
}

// handlerDeadline bounds one request's service time. It must exceed
// leaseWaitMax (the lease long-poll parks up to that long by design)
// while still unsticking a handler wedged on pathological input.
const handlerDeadline = 30 * time.Second

// NewServer wraps h in an http.Server hardened for a bad network:
// ReadHeaderTimeout defeats slow-header connection squatting,
// IdleTimeout reaps abandoned keep-alives, and every handler runs
// under handlerDeadline (expiry answers 503/CodeTimeout, which
// clients treat as retryable). Every server the fabric starts —
// coordinator Serve, the loopback harness, propaned — goes through
// here.
func NewServer(h http.Handler) *http.Server {
	timeoutBody, _ := json.Marshal(errorResponse{
		Error: fmt.Sprintf("handler deadline (%s) exceeded", handlerDeadline),
		Code:  CodeTimeout,
	})
	return &http.Server{
		Handler:           http.TimeoutHandler(h, handlerDeadline, string(timeoutBody)),
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Close releases the coordinator's files without assembling — for a
// coordinator abandoned (or crashed in a test) mid-campaign. The
// journals on disk remain resumable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var errs []error
	if c.journal != nil {
		errs = append(errs, c.journal.Close())
		c.journal = nil
	}
	if c.assign != nil {
		errs = append(errs, c.assign.Close())
		c.assign = nil
	}
	return errors.Join(errs...)
}

// Assemble folds the records the coordinator holds, and the adaptive
// planner that observed them, into the final campaign result —
// bit-identical to a single-node run — and writes the closing
// artifacts (config.json, metrics.json, failures.md, report.md). It
// reads no journal. Runs received from workers count as executed, runs
// restored from the journals at resume as replayed; elapsed time runs
// from the coordinator's start, and busy time sums the wall time of the
// units whose completion was acknowledged. A successful assembly
// releases the prepared campaign, so a finished coordinator that a
// service keeps routing to holds no golden traces; assembling again is
// an error.
func (c *Coordinator) Assemble() (*runner.RunResult, error) {
	opts := runner.Options{Dir: c.cfg.Dir, Logf: c.cfg.Logf}
	c.mu.Lock()
	if c.journal != nil {
		if err := c.journal.Close(); err != nil {
			c.mu.Unlock()
			return nil, err
		}
		c.journal = nil
	}
	p := c.prepared
	timing := runner.Timing{Start: c.start, Busy: c.busy}
	if p == nil || !c.complete {
		// Records may still arrive; the assembly refuses the unfinished
		// set under the lock.
		defer c.mu.Unlock()
		if p == nil {
			return nil, errors.New("distrib: campaign already assembled")
		}
		return p.Assemble(c.seen, c.planner, c.resumed, timing, opts)
	}
	// Complete: every claimed job has settled, so no upload can add a
	// record and the set and planner are frozen.
	c.mu.Unlock()
	rr, err := p.Assemble(c.seen, c.planner, c.resumed, timing, opts)
	if err == nil {
		c.mu.Lock()
		c.prepared = nil
		c.mu.Unlock()
	}
	return rr, err
}

// Serve runs the coordinator's HTTP API on l until the campaign
// completes, then assembles the final result. The server keeps
// answering (with StatusDone leases) while assembly runs, so workers
// drain cleanly, and shuts down afterwards.
func (c *Coordinator) Serve(l net.Listener) (*runner.RunResult, error) {
	srv := NewServer(c.Handler())
	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(l) }()
	select {
	case <-c.Done():
	case err := <-errCh:
		return nil, fmt.Errorf("distrib: coordinator server: %w", err)
	}
	rr, err := c.Assemble()
	_ = srv.Close()
	return rr, err
}

// writeJSON writes a 200 with a JSON body.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

// httpError writes an errorResponse with the given status.
func httpError(w http.ResponseWriter, status int, format string, args ...any) {
	httpErrorCode(w, status, "", format, args...)
}

// httpErrorCode writes an errorResponse carrying a machine-readable
// code alongside the prose.
func httpErrorCode(w http.ResponseWriter, status int, code, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: fmt.Sprintf(format, args...), Code: code})
}
