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
//     to a JSONL journal under a per-run artifact directory (config
//     snapshot, golden-run digests, journal, metrics, final report),
//     so a killed campaign resumes from its checkpoint and converges
//     to the bit-identical permeability matrix;
//   - explicit job slices: a process can be handed an ascending list
//     of job indices (Options.Jobs) to execute instead of the whole
//     campaign — how the distributed coordinator dispatches its work
//     units — and Assemble merges journals into the final result;
//   - observability: runs/sec, ETA, per-module n_err/n_inj counters
//     and worker utilisation as periodic log lines and an exportable
//     metrics.json;
//   - failure dedupe: deviating runs are fingerprinted so repeated
//     identical propagations don't bury novel ones.
package runner

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/report"
)

// defaultWorkers mirrors the campaign engine's zero-Workers choice.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Options parameterises one orchestrated campaign run.
type Options struct {
	// Name labels the campaign in artifacts and logs (an instance
	// name from the registry, or any label for ad-hoc configs).
	Name string
	// Tier records which intensity tier the config came from.
	Tier Tier
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
	// Workers overrides campaign.Config.Workers when positive.
	Workers int
	// LogInterval throttles progress lines (0 disables them).
	LogInterval time.Duration
	// Logf receives progress and lifecycle lines (nil discards).
	Logf func(format string, args ...any)
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
	// Adaptive overrides the config's adaptive sequential-sampling
	// mode when not AdaptiveOff (the zero value leaves the config's
	// own mode in force). It is part of the config digest: an
	// adaptive campaign executes a different job set, so journals
	// written under different adaptive settings must never mix. AdaptiveAuto is resolved to a definite mode before the
	// config is digested (see applyAdaptive), so the digest pins the
	// decision.
	Adaptive campaign.AdaptiveMode
	// CIEpsilon overrides the config's adaptive stopping half-width
	// when non-zero (campaign.Config.CIEpsilon, which Validate bounds
	// to [0, 0.5)). Part of the config digest, like Adaptive, and
	// meaningless without it.
	CIEpsilon float64
	// SkipReport suppresses rendering report.md. The distributed
	// worker sets it: a work unit's scratch directory is an
	// intermediate artifact whose records upload to the coordinator,
	// and rendering a full analysis report per unit would charge every
	// unit the cost of the final assembly.
	SkipReport bool
	// Memo, when non-nil, plugs a persistent memo store behind the
	// campaign's in-process result cache, so identical experiments are
	// reused across campaigns and process restarts. The runner scopes
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
// be safe for concurrent use, must not retain the entry's Diffs map,
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

// applySupervision folds the supervision knobs into the campaign
// configuration. It must run before the config is validated, digested
// or planned, so journals record the effective budget.
func (o *Options) applySupervision(cfg *campaign.Config) {
	if o.RunBudgetSteps > 0 {
		cfg.Budget.Steps = o.RunBudgetSteps
	}
	if o.RunWallBudget > 0 {
		cfg.Budget.Wall = o.RunWallBudget
	}
	if cfg.OnJobError == nil {
		if after := o.quarantineAfter(); after > 0 {
			cfg.OnJobError = campaign.QuarantinePolicy(after, o.Logf)
		}
	}
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

func (o *Options) normalise() error {
	if o.Name == "" {
		o.Name = "custom"
	}
	if o.Tier == "" {
		o.Tier = "custom"
	}
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
	// Options.Jobs it covers only those jobs; Assemble merges journals
	// into the complete result.
	Result *campaign.Result
	// Metrics is the final observability snapshot.
	Metrics Metrics
	// Failures is the deduplicated failure catalog.
	Failures []report.FailureCase
	// Dir is the artifact directory.
	Dir string
}

// jobKey identifies one (injection, test case) job independently of
// process lifetime; inject.Injection.String() is unique within a
// plan.
type jobKey struct {
	inj     string
	caseIdx int
}

// jobIndexer maps jobs to their position in the campaign's
// deterministic enumeration (plan-index major, case-index minor).
type jobIndexer struct {
	idx   map[jobKey]int
	cases int
}

func newJobIndexer(plan []inject.Injection, cases int) *jobIndexer {
	ji := &jobIndexer{idx: make(map[jobKey]int, len(plan)*cases), cases: cases}
	for pi, inj := range plan {
		s := inj.String()
		for ci := 0; ci < cases; ci++ {
			ji.idx[jobKey{s, ci}] = pi*cases + ci
		}
	}
	return ji
}

func (ji *jobIndexer) index(inj inject.Injection, caseIdx int) (int, bool) {
	i, ok := ji.idx[jobKey{inj.String(), caseIdx}]
	return i, ok
}

// RunInstance resolves a named instance from the registry and runs
// it.
func RunInstance(name string, tier Tier, opts Options) (*RunResult, error) {
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
	return Run(cfg, opts)
}

// Run executes one campaign (or its slice opts.Jobs) with journaling,
// progress tracking and failure dedupe, writing the artifact set
// under opts.Dir. A run interrupted by a kill is resumed by calling
// Run again with opts.Resume: completed jobs replay from the journal
// and only the remainder executes, converging to the bit-identical
// result of an uninterrupted run.
func Run(cfg campaign.Config, opts Options) (*RunResult, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	opts.applySupervision(&cfg)
	opts.applyAdaptive(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if opts.Workers > 0 {
		cfg.Workers = opts.Workers
	}
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	sys := cfg.System()
	ji := newJobIndexer(plan, len(cfg.TestCases))
	member, err := jobMembership(opts.Jobs, len(plan)*len(cfg.TestCases))
	if err != nil {
		return nil, err
	}

	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: creating artifact dir: %w", err)
	}
	l := layout{dir: opts.Dir}

	digests, err := goldenDigests(cfg)
	if err != nil {
		return nil, err
	}
	snap, err := newSnapshot(opts.Name, opts.Tier, cfg, len(plan), digests)
	if err != nil {
		return nil, err
	}
	if err := writeSnapshot(l.configPath(), snap, opts.Resume); err != nil {
		return nil, err
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
	done := make(map[int]bool)
	var replay []campaign.RunRecord
	if opts.Resume {
		hdr, recs, _, err := loadJournal(journalPath)
		if err != nil {
			return nil, err
		}
		if hdr.Type != "" && hdr.ConfigDigest != snap.Digest {
			return nil, fmt.Errorf("runner: journal %s belongs to config %s, not %s — refusing to mix campaigns: %w",
				journalPath, hdr.ConfigDigest, snap.Digest, ErrDigestMismatch)
		}
		for _, r := range recs {
			rec, err := r.RunRecord()
			if err != nil {
				return nil, err
			}
			job, ok := ji.index(rec.Injection, rec.CaseIndex)
			if !ok {
				return nil, fmt.Errorf("runner: journal %s contains foreign job %v case %d",
					journalPath, rec.Injection, rec.CaseIndex)
			}
			if member != nil && !member[job] {
				continue // outside this process's slice
			}
			if done[job] {
				continue // duplicate append from a racy predecessor
			}
			done[job] = true
			replay = append(replay, rec)
			if opts.OnRecord != nil {
				if err := opts.OnRecord(r, true); err != nil {
					return nil, err
				}
			}
		}
	} else if st, err := os.Stat(journalPath); err == nil && st.Size() > 0 {
		return nil, fmt.Errorf("runner: %s already exists — pass Resume to continue it or use a fresh artifact directory", journalPath)
	}

	jw, err := openJournal(journalPath, header{
		Type: "header", Version: journalVersion,
		Instance: opts.Name, Tier: string(opts.Tier),
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

	workers := cfg.Workers
	if workers == 0 {
		workers = defaultWorkers()
	}
	trk := newTracker(Metrics{
		Instance: opts.Name, Tier: string(opts.Tier),
		Workers:     workers,
		TotalRuns:   snap.TotalRuns,
		PlannedRuns: planned,
	}, opts.LogInterval, opts.Logf)
	ddp := newDeduper(sys)
	for _, rec := range replay {
		trk.absorb(rec, true)
		ddp.add(rec)
	}
	if len(replay) > 0 {
		opts.Logf("%s/%s: resumed %d/%d runs from %s",
			opts.Name, opts.Tier, len(replay), planned, journalPath)
	}

	cfg.Replay = replay
	cfg.Skip = func(inj inject.Injection, caseIdx int) bool {
		job, ok := ji.index(inj, caseIdx)
		return !ok || done[job] || (member != nil && !member[job])
	}
	cfg.Abort = opts.Abort

	// The serial observer path: journal, dedupe, metrics, then any
	// caller observer.
	var observeErr error
	userObserver := cfg.Observer
	cfg.Observer = func(rec campaign.RunRecord) {
		if observeErr == nil {
			job, ok := ji.index(rec.Injection, rec.CaseIndex)
			if !ok {
				observeErr = fmt.Errorf("runner: observed unplanned job %v case %d", rec.Injection, rec.CaseIndex)
			} else if jrec, err := newRecord(job, rec); err != nil {
				observeErr = err
			} else if err := retryIO(opts.maxRetries(), opts.Logf, "journal append", func() error {
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
		ddp.add(rec)
		trk.maybeLog(ddp.unique())
		if userObserver != nil {
			userObserver(rec)
		}
	}

	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	if observeErr != nil {
		return nil, observeErr
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}

	return finalise(res, l, trk, ddp, opts)
}

// finalise writes the closing artifacts (metrics.json, failures.md
// and — unless opts.SkipReport — report.md) and packages the
// RunResult.
func finalise(res *campaign.Result, l layout, trk *tracker, ddp *deduper, opts Options) (*RunResult, error) {
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
			Title:   fmt.Sprintf("Campaign %s/%s", opts.Name, opts.Tier),
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

// Assemble merges every journal under opts.Dir into the complete
// campaign result: all records replay into the aggregates, nothing
// re-executes, and the final report renders from the journals alone.
// It fails if any job of the injection space is missing, so a partial
// journal cannot masquerade as a finished campaign.
func Assemble(cfg campaign.Config, opts Options) (*RunResult, error) {
	if err := opts.normalise(); err != nil {
		return nil, err
	}
	// Apply the same supervision and adaptive overrides as Run so the
	// config digest matches the journals being assembled.
	opts.applySupervision(&cfg)
	opts.applyAdaptive(&cfg)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	sys := cfg.System()
	ji := newJobIndexer(plan, len(cfg.TestCases))
	l := layout{dir: opts.Dir}

	paths, err := l.journalPaths()
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("runner: no journals under %s", opts.Dir)
	}

	digests, err := goldenDigests(cfg)
	if err != nil {
		return nil, err
	}
	snap, err := newSnapshot(opts.Name, opts.Tier, cfg, len(plan), digests)
	if err != nil {
		return nil, err
	}
	if err := writeSnapshot(l.configPath(), snap, true); err != nil {
		return nil, err
	}

	// seen maps each job to the first record claiming it. Overlapping
	// records across journals are legal — a resumed run or a
	// reassigned distributed lease appends the same content twice —
	// but only when the content is identical: a conflicting duplicate
	// means two processes disagreed about the simulation, and merging
	// would silently produce a bad matrix.
	seen := make(map[int]Record)
	var replay []campaign.RunRecord
	for _, path := range paths {
		hdr, recs, _, err := loadJournal(path)
		if err != nil {
			return nil, err
		}
		if hdr.Type != "" && hdr.ConfigDigest != snap.Digest {
			return nil, fmt.Errorf("runner: journal %s belongs to config %s, not %s: %w",
				path, hdr.ConfigDigest, snap.Digest, ErrDigestMismatch)
		}
		for _, r := range recs {
			rec, err := r.RunRecord()
			if err != nil {
				return nil, err
			}
			job, ok := ji.index(rec.Injection, rec.CaseIndex)
			if !ok {
				return nil, fmt.Errorf("runner: journal %s contains foreign job %v case %d", path, rec.Injection, rec.CaseIndex)
			}
			if prev, dup := seen[job]; dup {
				// Journals disagree about the job index ↔ injection
				// mapping exactly when the record content differs, so
				// compare against the first claimant keyed by the
				// replayed job index, not the raw r.Job field.
				r.Job = job
				prev.Job = job
				if !RecordsEqual(prev, r) {
					return nil, fmt.Errorf("runner: journal %s: job %d (%v case %d) recorded with different content elsewhere: %w",
						path, job, rec.Injection, rec.CaseIndex, ErrConflictingRecords)
				}
				continue
			}
			r.Job = job
			seen[job] = r
			replay = append(replay, rec)
		}
	}
	if cfg.AdaptiveEnabled() {
		// An adaptive campaign's job set is decided by its sequential
		// scheduler, not by the matrix size, so "every job present" is
		// the wrong completeness test. Instead, rebuild the schedule —
		// it is a deterministic function of the config — feed it every
		// journaled record, and require that it declares itself done:
		// every confidence interval closed (or its population
		// exhausted) with no scheduled sample outstanding.
		planner, err := campaign.NewAdaptivePlanner(cfg)
		if err != nil {
			return nil, err
		}
		for _, rec := range replay {
			if err := planner.Observe(rec); err != nil {
				return nil, fmt.Errorf("runner: assembling adaptive campaign: %w", err)
			}
		}
		if !planner.Done() {
			return nil, fmt.Errorf("runner: journals cover %d settled runs but %d scheduled jobs are outstanding; resume the campaign first: %w",
				planner.Settled(), planner.Outstanding(), ErrScheduleIncomplete)
		}
	} else if len(seen) != snap.TotalRuns {
		return nil, fmt.Errorf("runner: journals cover %d of %d runs — %d missing; resume the campaign first",
			len(seen), snap.TotalRuns, snap.TotalRuns-len(seen))
	}

	trk := newTracker(Metrics{
		Instance: opts.Name, Tier: string(opts.Tier),
		TotalRuns: snap.TotalRuns, PlannedRuns: snap.TotalRuns,
	}, 0, nil)
	ddp := newDeduper(sys)
	for _, rec := range replay {
		trk.absorb(rec, true)
		ddp.add(rec)
	}

	cfg.Replay = replay
	cfg.Skip = func(inject.Injection, int) bool { return true }
	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}
	return finalise(res, l, trk, ddp, opts)
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
