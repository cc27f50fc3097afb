// Package runner is the production orchestration layer around the
// campaign engine (internal/campaign). Where campaign.Run executes
// one monolithic in-memory campaign, the runner provides the
// machinery a large SWIFI campaign needs to survive contact with real
// infrastructure:
//
//   - named instances: a registry of campaign configurations (the
//     paper grid, the dual-node deployment, the autobrake target, the
//     error-model and tolerance ablations) selectable by name and
//     tier (quick/full);
//   - journaled execution: every injection run's outcome is appended
//     to a binary journal (journal.bin) under a per-run artifact
//     directory (config snapshot, golden-run digests, journal,
//     metrics, final report),
//     so a killed campaign resumes from its checkpoint and converges
//     to the bit-identical permeability matrix;
//   - one preparation per campaign: Prepare validates and plans the
//     campaign and records its golden runs once; the Prepared then
//     runs and assembles any number of times without repeating that;
//   - explicit job slices: a process can be handed an ascending list
//     of job indices (Options.Jobs) to execute instead of the whole
//     campaign — how the distributed coordinator dispatches its work
//     units — and Prepared.Assemble folds the settled records into the
//     final result;
//   - observability: runs/sec, ETA, per-module n_err/n_inj counters
//     and worker utilisation as periodic log lines and an exportable
//     metrics.json;
//   - failure dedupe: deviating runs are fingerprinted so repeated
//     identical propagations don't bury novel ones.
package runner

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/report"
)

// Options parameterises one orchestrated campaign. Its fields fall in
// two groups:
//
//   - campaign fields (Name through CIEpsilon) shape the campaign
//     itself: its config digest, golden pass and worker pool. Prepare
//     reads them once.
//   - execution fields (Dir onwards) say how one run or assembly of
//     the prepared campaign proceeds. Prepared.Run and
//     Prepared.Assemble read only these.
//
// Run and RunInstance prepare and execute in one call, so they read
// both.
type Options struct {
	// Name labels the campaign in artifacts and logs (an instance
	// name from the registry, or any label for ad-hoc configs).
	Name string
	// Tier records which intensity tier the config came from.
	Tier Tier
	// Workers overrides campaign.Config.Workers when positive. Prepare
	// resolves the result with the campaign engine's rule (<= 0 selects
	// GOMAXPROCS), so Metrics.Workers reports the pool that ran.
	Workers int
	// RunBudgetSteps arms the per-run watchdog: each injection run is
	// terminated and classified as a hang once it has charged this
	// many deterministic work units (campaign.Config.Budget.Steps).
	// 0 leaves the config's own budget in force. The value is part of
	// the config digest — a hang is a run outcome, so two processes
	// must agree on the budget to share a journal.
	RunBudgetSteps int64
	// RunWallBudget adds a non-deterministic wall-clock backstop per
	// run. It is excluded from the config digest: it should only trip
	// for code that hangs without charging the step budget.
	RunWallBudget time.Duration
	// Adaptive overrides the config's adaptive sequential-sampling
	// mode when not AdaptiveOff (the zero value leaves the config's
	// own mode in force). It is part of the config digest: an
	// adaptive campaign executes a different job set, so journals
	// written under different adaptive settings must never mix.
	// AdaptiveAuto is resolved to a definite mode before the config is
	// digested (see applyAdaptive), so the digest pins the decision.
	Adaptive campaign.AdaptiveMode
	// CIEpsilon overrides the config's adaptive stopping half-width
	// when non-zero (campaign.Config.CIEpsilon, which Validate bounds
	// to [0, 0.5)). Part of the config digest, like Adaptive, and
	// meaningless without it.
	CIEpsilon float64

	// Dir is the artifact directory. It is created if missing; it
	// must not contain a different campaign's artifacts.
	Dir string
	// Jobs, when non-nil, is this process's slice of the campaign: a
	// strictly ascending list of job indices to execute, and nothing
	// else. Jobs outside the list are neither executed nor replayed
	// from the journal, and they do not count toward PlannedRuns. The
	// slice runs as a fixed job set under the campaign's own digest:
	// for an adaptive campaign whoever chose the jobs (the distributed
	// coordinator) owns the schedule, so Run's own scheduler stays off.
	// Nil runs the whole campaign.
	Jobs []int
	// Resume loads the journal and skips already-completed jobs
	// instead of refusing to touch a non-empty journal.
	Resume bool
	// LogInterval throttles progress lines (0 disables them).
	LogInterval time.Duration
	// Logf receives progress and lifecycle lines (nil discards).
	Logf func(format string, args ...any)
	// MaxRetries bounds the retries of a transient journal or
	// artifact I/O failure (capped exponential backoff). 0 means the
	// default (3); negative disables retrying.
	MaxRetries int
	// QuarantineAfter abandons a job as poison after this many
	// consecutive worker crashes, journaling it as quarantined instead
	// of aborting the campaign. 0 means the default (3); negative
	// disables quarantine, restoring the fail-fast contract. Ignored
	// when the config already sets OnJobError.
	QuarantineAfter int
	// OnRecord, when non-nil, receives every journaled record on the
	// serial observer path: records restored from the journal during
	// resume (replayed true) and records appended as runs complete
	// (replayed false). The distributed worker (internal/distrib)
	// streams these to its coordinator — replayed delivery is what
	// lets a restarted worker forward records it journaled locally but
	// never managed to flush. A returned error aborts the run.
	OnRecord func(rec Record, replayed bool) error
	// Abort, when non-nil, is polled between job dispatches; once it
	// returns true no further jobs start, in-flight runs finish and
	// journal, and Run returns the partial result without error. It is
	// called concurrently with OnRecord — use an atomic flag. The
	// distributed worker aborts when its lease is lost.
	Abort func() bool
	// SkipReport suppresses rendering report.md. The distributed
	// worker sets it: a work unit's scratch directory is an
	// intermediate artifact whose records upload to the coordinator,
	// and rendering a full analysis report per unit would charge every
	// unit the cost of the final assembly.
	SkipReport bool
	// Memo, when non-nil, plugs in a persistent memo store, so
	// identical experiments are reused within a campaign and across
	// campaigns and process restarts. The runner scopes
	// every key by the campaign's config digest before it reaches the
	// store — the digest pins plan, golden behaviour and budget, so
	// within one scope the memo keys are sound across processes. It is
	// excluded from the config digest itself: store-served and executed
	// records carry bit-identical outcomes (only the journal's pruned
	// label differs, which record equality ignores).
	Memo MemoStore
}

// MemoStore is a digest-scoped persistent memo store (see
// Options.Memo). internal/store implements it; implementations must
// be safe for concurrent use, must never modify an entry's Diffs
// slice, which the campaign's records share (campaign.MemoBackend),
// and should report misses on internal errors so a degraded store
// falls back to execution.
type MemoStore interface {
	GetMemo(scope string, k campaign.MemoKey) (campaign.MemoEntry, bool)
	PutMemo(scope string, k campaign.MemoKey, e campaign.MemoEntry)
}

// scopedMemo adapts a MemoStore into the campaign engine's
// un-scoped MemoBackend by pinning the scope.
type scopedMemo struct {
	store MemoStore
	scope string
}

func (s scopedMemo) GetMemo(k campaign.MemoKey) (campaign.MemoEntry, bool) {
	return s.store.GetMemo(s.scope, k)
}

func (s scopedMemo) PutMemo(k campaign.MemoKey, e campaign.MemoEntry) {
	s.store.PutMemo(s.scope, k, e)
}

// Defaults for the zero values of the supervision knobs.
const (
	defaultMaxRetries      = 3
	defaultQuarantineAfter = 3
)

// maxRetries resolves the I/O retry count (0 → default, negative →
// disabled).
func (o *Options) maxRetries() int {
	switch {
	case o.MaxRetries == 0:
		return defaultMaxRetries
	case o.MaxRetries < 0:
		return 0
	}
	return o.MaxRetries
}

// quarantineAfter resolves the quarantine threshold (0 → default,
// negative → disabled).
func (o *Options) quarantineAfter() int {
	switch {
	case o.QuarantineAfter == 0:
		return defaultQuarantineAfter
	case o.QuarantineAfter < 0:
		return 0
	}
	return o.QuarantineAfter
}

// applyAdaptive folds the adaptive overrides into the configuration
// and resolves AdaptiveAuto to a definite mode. Resolution must
// happen before the config is digested or planned: the adaptive job
// set depends on it, and the digest pins the decision.
func (o *Options) applyAdaptive(cfg *campaign.Config) {
	if o.Adaptive != campaign.AdaptiveOff {
		cfg.Adaptive = o.Adaptive
	}
	if o.CIEpsilon != 0 {
		cfg.CIEpsilon = o.CIEpsilon // Validate rejects negative and NaN
	}
	if cfg.Adaptive == campaign.AdaptiveAuto {
		if cfg.AdaptiveEnabled() {
			cfg.Adaptive = campaign.AdaptiveForce
		} else {
			cfg.Adaptive = campaign.AdaptiveOff
		}
	}
}

// normalise checks and defaults the execution fields.
func (o *Options) normalise() error {
	if o.Dir == "" {
		return errors.New("runner: no artifact directory")
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return nil
}

// RunResult is the outcome of an orchestrated run.
type RunResult struct {
	// Result is the aggregated campaign result. For a run given
	// Options.Jobs it covers only those jobs; Assemble folds the whole
	// record set into the complete result.
	Result *campaign.Result
	// Metrics is the final observability snapshot.
	Metrics Metrics
	// Failures is the deduplicated failure catalog.
	Failures []report.FailureCase
	// Dir is the artifact directory.
	Dir string
}

// Prepared is a campaign whose fixed work is done: options folded in,
// config validated, injection plan enumerated and indexed, Golden
// Runs recorded once and digested into the config snapshot. Run and
// Assemble it as often as needed — a distributed worker runs every
// unit of one campaign from one Prepared — without repeating that
// work. Preparing touches no files.
type Prepared struct {
	cfg    campaign.Config
	info   PlanInfo
	snap   snapshot
	sys    *model.System
	golden *campaign.Golden
	ji     *campaign.JobIndex
	specs  map[inject.ErrorModel]string // inject.Spec of each planned model
}

// Prepare does a campaign's fixed work (see Prepared), reading only
// the campaign fields of opts.
func Prepare(cfg campaign.Config, opts Options) (*Prepared, error) {
	if opts.Name == "" {
		opts.Name = "custom"
	}
	if opts.Tier == "" {
		opts.Tier = "custom"
	}
	// The overrides fold in before the config is validated, digested
	// or planned, so journals record the effective budget and the
	// resolved adaptive decision.
	if opts.RunBudgetSteps > 0 {
		cfg.Budget.Steps = opts.RunBudgetSteps
	}
	if opts.RunWallBudget > 0 {
		cfg.Budget.Wall = opts.RunWallBudget
	}
	opts.applyAdaptive(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	cfg.Workers = cfg.ResolvedWorkers()
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	// The golden runs execute under the same watchdog as the injection
	// runs: an uninjected target that crashes or hangs is a broken
	// config, reported before any journal is touched.
	golden, err := campaign.RecordGolden(cfg)
	if err != nil {
		return nil, err
	}
	digests, err := golden.Digests()
	if err != nil {
		return nil, err
	}
	snap, err := newSnapshot(opts.Name, opts.Tier, cfg, len(plan), digests)
	if err != nil {
		return nil, err
	}
	specs := make(map[inject.ErrorModel]string)
	for _, inj := range plan {
		if _, ok := specs[inj.Model]; ok {
			continue
		}
		spec, err := inject.Spec(inj.Model)
		if err != nil {
			return nil, err
		}
		specs[inj.Model] = spec
	}
	return &Prepared{
		cfg: cfg,
		info: PlanInfo{
			Name:      opts.Name,
			Tier:      opts.Tier,
			Digest:    snap.Digest,
			PlanSize:  len(plan),
			Cases:     len(cfg.TestCases),
			TotalRuns: snap.TotalRuns,
			Adaptive:  snap.Adaptive,
			CIEpsilon: snap.CIEpsilon,
		},
		snap:   snap,
		sys:    cfg.System(),
		golden: golden,
		ji:     campaign.NewJobIndex(plan, len(cfg.TestCases)),
		specs:  specs,
	}, nil
}

// PrepareInstance resolves a named instance from the registry and
// prepares it.
func PrepareInstance(name string, tier Tier, opts Options) (*Prepared, error) {
	def, err := Lookup(name)
	if err != nil {
		return nil, err
	}
	cfg, err := def.Config(tier)
	if err != nil {
		return nil, fmt.Errorf("runner: building %s/%s: %w", name, tier, err)
	}
	opts.Name = name
	opts.Tier = tier
	return Prepare(cfg, opts)
}

// Info describes the prepared campaign's execution space and config
// digest.
func (p *Prepared) Info() PlanInfo { return p.info }

// JobIndex numbers the prepared campaign's jobs.
func (p *Prepared) JobIndex() *campaign.JobIndex { return p.ji }

// Planner builds the adaptive sampling schedule of the prepared
// campaign from its recorded golden runs and replays the settled
// records recs through it. It fails for a full-matrix campaign.
func (p *Prepared) Planner(recs map[int]Record) (*campaign.AdaptivePlanner, error) {
	planner, err := p.golden.Planner(p.cfg)
	if err != nil {
		return nil, err
	}
	for _, job := range sortedJobs(recs) {
		rec, err := recs[job].RunRecord()
		if err == nil {
			err = planner.Observe(rec)
		}
		if err != nil {
			return nil, fmt.Errorf("runner: replaying records into the adaptive schedule: %w", err)
		}
	}
	return planner, nil
}

// RunInstance resolves a named instance from the registry and runs
// it.
func RunInstance(name string, tier Tier, opts Options) (*RunResult, error) {
	p, err := PrepareInstance(name, tier, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(opts)
}

// Run prepares one campaign and runs it (see Prepared.Run).
func Run(cfg campaign.Config, opts Options) (*RunResult, error) {
	p, err := Prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	return p.Run(opts)
}

// Run executes the campaign (or its slice opts.Jobs) with journaling,
// progress tracking and failure dedupe, writing the artifact set
// under opts.Dir. A run interrupted by a kill is resumed by running
// again with opts.Resume: completed jobs replay from the journal and
// only the remainder executes, converging to the bit-identical result
// of an uninterrupted run. Only the execution fields of opts are read.
func (p *Prepared) Run(opts Options) (*RunResult, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	cfg := p.cfg
	snap := p.snap
	member, err := jobMembership(opts.Jobs, snap.TotalRuns)
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: creating artifact dir: %w", err)
	}
	l := layout{dir: opts.Dir}
	if err := writeSnapshot(l.configPath(), snap); err != nil {
		return nil, err
	}
	if after := opts.quarantineAfter(); cfg.OnJobError == nil && after > 0 {
		cfg.OnJobError = campaign.QuarantinePolicy(after, opts.Logf)
	}
	if opts.Memo != nil {
		cfg.Memo = scopedMemo{store: opts.Memo, scope: snap.Digest}
	}
	// A process handed an explicit job list (a distributed worker
	// running a coordinator-claimed unit) executes it as a fixed slice:
	// the coordinator owns the adaptive schedule and decided these jobs
	// already. The snapshot above keeps the adaptive fields, so the
	// worker's journal still binds to the adaptive campaign's digest.
	if member != nil {
		cfg.Adaptive = campaign.AdaptiveOff
	}

	journalPath := l.journalPath()

	// Restore completed jobs from the journal.
	done := make([]bool, snap.TotalRuns)
	var replay []campaign.RunRecord
	ddp := newDeduper(p.sys)
	if opts.Resume {
		recs, err := p.LoadJournals(opts.Dir)
		if err != nil {
			return nil, err
		}
		for _, job := range sortedJobs(recs) {
			if member != nil && !member[job] {
				continue // outside this process's slice
			}
			r := recs[job]
			rec, err := r.RunRecord()
			if err != nil {
				return nil, err
			}
			done[job] = true
			replay = append(replay, rec)
			ddp.add(job, rec)
			if opts.OnRecord != nil {
				if err := opts.OnRecord(r, true); err != nil {
					return nil, err
				}
			}
		}
	} else if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("runner: %s already exists — pass Resume to continue it or use a fresh artifact directory", journalPath)
	}

	jw, err := openJournal(journalPath, JournalHeader{
		Instance: p.info.Name, Tier: string(p.info.Tier),
		ConfigDigest: snap.Digest,
	})
	if err != nil {
		return nil, err
	}
	defer jw.Close()

	// This process's share of the job space. For an adaptive campaign
	// this is an upper bound — the scheduler discovers the executed
	// subset at run time and typically stops far short of it, so the
	// tracker's ETA is conservative.
	planned := snap.TotalRuns
	if member != nil {
		planned = len(opts.Jobs)
	}

	trk := newTracker(Metrics{
		Instance: p.info.Name, Tier: string(p.info.Tier),
		Workers:     cfg.Workers,
		TotalRuns:   snap.TotalRuns,
		PlannedRuns: planned,
	}, opts.LogInterval, opts.Logf)
	for _, rec := range replay {
		trk.absorb(rec, true)
	}
	if len(replay) > 0 {
		opts.Logf("%s/%s: resumed %d/%d runs from %s",
			p.info.Name, p.info.Tier, len(replay), planned, journalPath)
	}

	cfg.Replay = replay
	// Skip runs on the campaign's feeder goroutine, concurrently with
	// the observer below; it only reads done and member, which nothing
	// writes once the campaign has started.
	cfg.Skip = func(job int) bool {
		return done[job] || (member != nil && !member[job])
	}
	cfg.Abort = opts.Abort

	// The serial observer path: journal, dedupe, metrics, then any
	// caller observer.
	var observeErr error
	userObserver := cfg.Observer
	cfg.Observer = func(rec campaign.RunRecord) {
		job, ok := p.ji.Job(rec.Injection, rec.CaseIndex)
		if observeErr == nil && !ok {
			observeErr = fmt.Errorf("runner: observed unplanned job %v case %d", rec.Injection, rec.CaseIndex)
		} else if observeErr == nil {
			// A planned job's model is in p.specs.
			jrec := newRecord(job, p.specs[rec.Injection.Model], rec)
			if err := retryIO(opts.maxRetries(), opts.Logf, "journal append", func() error {
				return jw.AppendBatch([]Record{jrec})
			}); err != nil {
				observeErr = err
			} else if opts.OnRecord != nil {
				if err := opts.OnRecord(jrec, false); err != nil {
					observeErr = err
				}
			}
		}
		trk.absorb(rec, false)
		ddp.add(job, rec)
		trk.maybeLog(ddp.unique())
		if userObserver != nil {
			userObserver(rec)
		}
	}

	res, err := p.golden.Run(cfg)
	if err != nil {
		return nil, err
	}
	if observeErr != nil {
		return nil, observeErr
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}

	return p.finalise(res, l, trk, ddp, opts)
}

// finalise writes the closing artifacts (metrics.json, failures.md
// and — unless opts.SkipReport — report.md) and packages the
// RunResult.
func (p *Prepared) finalise(res *campaign.Result, l layout, trk *tracker, ddp *deduper, opts Options) (*RunResult, error) {
	trk.m.UniqueFailures = ddp.unique()
	metrics := trk.snapshot(time.Now())
	retries := opts.maxRetries()
	if err := retryIO(retries, opts.Logf, "writing metrics.json", func() error {
		return writeMetrics(l.metricsPath(), metrics)
	}); err != nil {
		return nil, err
	}
	failures := ddp.failures()
	if err := retryIO(retries, opts.Logf, "writing failures.md", func() error {
		return writeFileAtomic(l.failuresPath(), []byte(report.FailureTable(failures)))
	}); err != nil {
		return nil, err
	}
	if !opts.SkipReport {
		md, err := report.Markdown(res, report.MarkdownOptions{
			Title:   fmt.Sprintf("Campaign %s/%s", p.info.Name, p.info.Tier),
			Latency: true, Uniform: true,
		})
		if err != nil {
			return nil, err
		}
		if err := retryIO(retries, opts.Logf, "writing report.md", func() error {
			return writeFileAtomic(l.reportPath(), []byte(md))
		}); err != nil {
			return nil, err
		}
	}
	return &RunResult{Result: res, Metrics: metrics, Failures: failures, Dir: opts.Dir}, nil
}

// Timing is what an assembly knows of how the campaign's executed runs
// were timed where they ran; records carry no run time. The zero value
// times the assembly alone.
type Timing struct {
	// Start is when execution began (a coordinator's start); zero
	// means when the assembly starts.
	Start time.Time
	// Busy sums the wall time the workers reported executing the runs.
	Busy time.Duration
}

// Assemble folds a finished campaign's settled records, keyed by job
// index, into the complete result and writes the closing artifacts
// under opts.Dir; nothing executes and no journal is read. An adaptive
// campaign passes the planner that observed exactly recs, which must
// report the schedule closed; a full-matrix one passes nil and must
// hold every job. An unfinished record set fails before anything is
// written. replayed of the records count as restored from journals
// (Metrics.ReplayedRuns), the rest as executed for this campaign
// (Metrics.ExecutedRuns). The metrics' elapsed time and busy time come
// from timing; an assembly has no worker pool of its own, so it
// reports no workers and no utilisation. Only the execution fields of
// opts are read.
func (p *Prepared) Assemble(recs map[int]Record, planner *campaign.AdaptivePlanner, replayed int, timing Timing, opts Options) (*RunResult, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	snap := p.snap
	switch {
	case p.info.Adaptive && planner == nil:
		return nil, errors.New("runner: assembling an adaptive campaign needs its planner")
	case p.info.Adaptive && planner.Settled() != len(recs):
		return nil, fmt.Errorf("runner: the planner observed %d settled runs, not the %d records being assembled", planner.Settled(), len(recs))
	case p.info.Adaptive && !planner.Done():
		return nil, fmt.Errorf("runner: journals cover %d settled runs but %d scheduled jobs are outstanding; resume the campaign first: %w",
			planner.Settled(), planner.Outstanding(), ErrScheduleIncomplete)
	case !p.info.Adaptive && len(recs) != snap.TotalRuns:
		return nil, fmt.Errorf("runner: journals cover %d of %d runs — %d missing; resume the campaign first",
			len(recs), snap.TotalRuns, snap.TotalRuns-len(recs))
	}
	l := layout{dir: opts.Dir}
	if err := writeSnapshot(l.configPath(), snap); err != nil {
		return nil, err
	}

	trk := newTracker(Metrics{
		Instance: p.info.Name, Tier: string(p.info.Tier),
		TotalRuns: snap.TotalRuns, PlannedRuns: snap.TotalRuns,
	}, 0, nil)
	if !timing.Start.IsZero() {
		trk.start = timing.Start
	}
	trk.busy = timing.Busy
	ddp := newDeduper(p.sys)
	settled := make([]campaign.RunRecord, 0, len(recs))
	for i, job := range sortedJobs(recs) {
		rec, err := recs[job].RunRecord()
		if err != nil {
			return nil, err
		}
		trk.absorb(rec, i < replayed)
		ddp.add(job, rec)
		settled = append(settled, rec)
	}
	res, err := p.golden.Fold(p.cfg, settled, planner)
	if err != nil {
		return nil, err
	}
	return p.finalise(res, l, trk, ddp, opts)
}

// LoadJournals reads the campaign's journal under dir (JournalPath)
// into one record set keyed by job index, empty when there is none.
// Its header must carry the campaign's digest (ErrDigestMismatch). A
// record's job is derived from its content and its Job field
// rewritten to match. Duplicates — a resumed run or a reassigned lease
// appends a record twice — must be identical: conflicting content
// means two processes disagreed about the simulation
// (ErrConflictingRecords). A JSON-lines journal (journal*.jsonl) from
// before version 5 is refused, not ignored: resuming past it would
// silently re-run its records.
func (p *Prepared) LoadJournals(dir string) (map[int]Record, error) {
	if old, _ := filepath.Glob(filepath.Join(dir, "journal*.jsonl")); len(old) > 0 {
		_, _, _, err := loadJournal(old[0]) // names a version 3 or 4 journal's version
		return nil, cmp.Or(err, fmt.Errorf("runner: %s is not a version %d journal: the record encoding changed to binary frames in journal.bin — rerun the campaign in a fresh directory",
			old[0], journalVersion))
	}
	path := JournalPath(dir)
	hdr, journaled, _, err := loadJournal(path)
	if err != nil {
		return nil, err
	}
	if hdr.Type != "" && hdr.ConfigDigest != p.snap.Digest {
		return nil, fmt.Errorf("runner: journal %s belongs to config %s, not %s — refusing to mix campaigns: %w",
			path, hdr.ConfigDigest, p.snap.Digest, ErrDigestMismatch)
	}
	recs := make(map[int]Record, len(journaled))
	for _, r := range journaled {
		inj, err := r.Injection()
		if err != nil {
			return nil, err
		}
		job, ok := p.ji.Job(inj, r.Case)
		if !ok {
			return nil, fmt.Errorf("runner: journal %s contains foreign job %v case %d", path, inj, r.Case)
		}
		r.Job = job
		if prev, dup := recs[job]; dup {
			if !RecordsEqual(prev, r) {
				return nil, fmt.Errorf("runner: journal %s: job %d (%v case %d) recorded twice with different content: %w",
					path, job, inj, r.Case, ErrConflictingRecords)
			}
			continue
		}
		recs[job] = r
	}
	return recs, nil
}

// sortedJobs returns a record set's job indices in ascending order.
func sortedJobs(recs map[int]Record) []int {
	jobs := make([]int, 0, len(recs))
	for job := range recs {
		jobs = append(jobs, job)
	}
	sort.Ints(jobs)
	return jobs
}

// jobMembership validates a Jobs list against a job space of total
// jobs and returns its membership table, or nil when jobs is nil (the
// whole campaign runs).
func jobMembership(jobs []int, total int) ([]bool, error) {
	if jobs == nil {
		return nil, nil
	}
	member := make([]bool, total)
	prev := -1
	for _, job := range jobs {
		if job <= prev || job >= total {
			return nil, fmt.Errorf("runner: Jobs must ascend strictly within [0,%d); got %d after %d", total, job, prev)
		}
		member[job] = true
		prev = job
	}
	return member, nil
}
