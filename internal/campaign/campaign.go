// Package campaign orchestrates the fault-injection experiments of the
// paper's Sections 6 and 7: for every test case a Golden Run is
// recorded; then, for every (module, input signal, injection time,
// error) combination, an injection run executes with a one-shot trap
// armed, its signal traces are compared against the Golden Run on the
// fly, and the per-pair error counts yield the permeability estimates
// P^M_{i,k} = n_err / n_inj.
package campaign

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"propane/internal/arrestor"
	"propane/internal/core"
	"propane/internal/estimate"
	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/stats"
	"propane/internal/target"
	"propane/internal/trace"
)

// Config parameterises one campaign.
type Config struct {
	// Arrestor configures the target system and its environment.
	Arrestor arrestor.Config
	// Dual selects the master/slave two-node configuration of the real
	// deployment (Section 7.1) instead of the paper's single-node
	// setup: 11 modules, 31 pairs, two system outputs. The slave slots
	// are the arrestor package defaults and the second brake circuit
	// is added automatically.
	Dual bool
	// Custom, when non-nil, replaces the built-in arrestment targets
	// entirely (Dual and Arrestor are then ignored).
	Custom *Target
	// TestCases is the workload grid (the paper uses physics.PaperGrid).
	TestCases []physics.TestCase
	// Times are the injection instants.
	Times []sim.Millis
	// Bits are the bit positions flipped (the paper's error model).
	// Ignored when Models is non-empty.
	Bits []uint
	// Models, when non-empty, replaces the bit-flip model with an
	// arbitrary error-model list (used by the error-model ablation).
	Models []inject.ErrorModel
	// HorizonMs is the length of every run and of the Golden Run
	// Comparison window.
	HorizonMs sim.Millis
	// DirectWindowMs implements the paper's Section 7.3 rule "we only
	// took into account the direct errors on the outputs": an output
	// deviation counts toward n_err only if its first difference
	// appears within this many milliseconds of the trap firing.
	// Deviations appearing later stem from errors that left through
	// another output (or the environment) and came back. 0 disables
	// the window and counts every deviation.
	DirectWindowMs sim.Millis
	// Workers bounds the number of concurrent injection runs;
	// Workers <= 0 selects GOMAXPROCS.
	Workers int
	// Memo, when non-nil, plugs in a memo store: memoizable
	// experiments are looked up there before executing, and executed
	// results are offered back. A persistent backend lets identical
	// experiments be reused across campaigns and processes — the
	// caller must scope the backend to one campaign config digest (see
	// runner.Options.Memo). Only consulted when the campaign prunes
	// (no Instrument hook, see pruningEnabled); hits are labeled
	// PrunedMemoStore.
	Memo MemoBackend
	// Adaptive selects sequential, confidence-interval-driven sampling
	// of the injection space instead of the fixed bits × instants ×
	// cases enumeration (see AdaptiveMode and adaptive.go). The default
	// AdaptiveOff executes the full matrix, bit-identical to campaigns
	// recorded before adaptive mode existed. Adaptive campaigns ignore
	// Skip — the scheduler owns the job set; resume is driven by Replay,
	// whose records mark their samples settled before dispatch starts.
	Adaptive AdaptiveMode
	// CIEpsilon is the adaptive stopping half-width ε: sampling at a
	// location stops once every pair's conservative confidence interval
	// (and the location's system-propagation interval) has half-width
	// ≤ ε. 0 selects the 0.05 default. Only consulted when adaptive
	// sampling is in effect.
	CIEpsilon float64
	// OnlyModule, when non-empty, restricts injections to the inputs
	// of one module (useful for focused studies).
	OnlyModule string
	// Tolerances loosens the Golden Run Comparison per signal: a
	// deviation within the band counts as equal. The zero value is the
	// paper's exact comparison, which its Section 7.3 argues is valid
	// only because everything runs in simulated time; the tolerance
	// ablation probes what a real test rig's comparison would measure.
	Tolerances trace.Tolerances
	// FaultDurationMs switches from the paper's transient one-shot
	// errors (the zero value) to persistent faults: the error model is
	// re-applied on every matching read for this many milliseconds
	// after the injection instant. Pair with idempotent models
	// (stuck-at, replace) — a repeated bit-flip toggles.
	FaultDurationMs sim.Millis
	// Observer, when non-nil, receives the per-run detail of every
	// injection run. It is called serially from the aggregation loop,
	// so it needs no synchronisation of its own. The EDM placement
	// evaluation (internal/edm) is built on it.
	Observer func(RunRecord)
	// Progress, when non-nil, is called serially from the aggregation
	// loop after every completed injection run with the number done
	// and the total planned.
	Progress func(done, total int)
	// Instrument, when non-nil, is invoked for every injection run
	// after the instance is built and before it executes, so runtime
	// monitors (executable assertions) and runtime mechanisms
	// (recovery hooks) can be attached; caseIdx identifies the
	// workload point so per-case reference data (golden traces) can be
	// selected. It runs on worker goroutines; the value it returns is
	// handed back — unsynchronised state must live there — via
	// RunRecord.Attachment on the serial Observer path.
	//
	// Instrument also decides the campaign's fast paths. Without it,
	// injection runs fast-forward from per-instant checkpoints when
	// the target supports them (checkpoint.go) and provably redundant
	// runs are pruned or memoized (prune.go) — both bit-identical to
	// full execution. With it, every run is built and executed from
	// t=0, so the hook sees every run from its first tick.
	Instrument func(inst Instance, caseIdx int) (any, error)
	// Skip, when non-nil, is consulted for every planned job, by its
	// index in the campaign's enumeration (see JobIndex), before it is
	// dispatched; returning true excludes the job from execution. The
	// orchestration layer (internal/runner) uses it to run an explicit
	// slice of the job space and to resume a journaled campaign without
	// re-executing completed runs. Skipped jobs contribute nothing to
	// the aggregates — pair them with Replay to keep results whole.
	//
	// Skip is called in ascending job order, at most once per job, as
	// jobs are dispatched: up to the first job it keeps from Run's
	// goroutine, after that from a feeder goroutine, concurrently with
	// Observer and Progress. An Abort or a failed job ends the calls.
	// So Skip may read only state that nothing writes while the
	// campaign runs, or must synchronise with what does.
	Skip func(job int) bool
	// Replay seeds the aggregates with previously recorded runs —
	// typically journal entries from an interrupted campaign — before
	// any new injection run executes. Replayed records are not passed
	// to Observer or Progress again; aggregation is order-independent,
	// so a replayed-then-resumed campaign converges to the same Result
	// as an uninterrupted one. A record's Diffs only needs to carry
	// the deviating signals, in ascending name order: a missing entry
	// counts as "no deviation".
	Replay []RunRecord
	// Budget is the per-run watchdog applied to every simulation
	// kernel (golden and injection runs alike): a run exceeding its
	// step or wall budget terminates deterministically and is
	// classified OutcomeHang instead of stalling the campaign. The
	// zero value disables supervision — required for targets whose
	// injected errors can cause non-termination.
	Budget sim.Budget
	// OnJobError, when non-nil, decides what happens when an injection
	// job fails with an infrastructure error — instance construction,
	// instrumentation, or a panic outside the supervised target
	// execution (a worker crash). attempt counts the job's consecutive
	// failed executions, starting at 1. Returning RetryJob re-executes
	// the job; QuarantineJob settles it as OutcomeQuarantined (poison
	// job: reported, journaled via Observer, excluded from n_inj) and
	// moves on; AbortOnError — and a nil OnJobError — fails the whole
	// campaign, the pre-supervision behaviour. Target panics raised
	// during the run itself never reach this hook; they are classified
	// OutcomeCrash.
	OnJobError func(inj inject.Injection, caseIdx, attempt int, err error) JobErrorAction
	// Abort, when non-nil, is polled between job dispatches; once it
	// returns true no further jobs start. In-flight runs complete and
	// reach Observer, then Run returns the partial result without
	// error. The distributed execution layer (internal/distrib) uses
	// it to stop a worker whose lease has been reassigned. It is
	// called from the dispatch goroutine, concurrently with Observer —
	// implementations must be safe for that (e.g. an atomic flag).
	Abort func() bool

	// defect records a construction-time failure of a preset
	// constructor (e.g. ReducedConfig); Validate surfaces it joined to
	// ErrInvalidConfig instead of the constructor panicking.
	defect error
	// replayAll turns checkpoint fast-forward off, so every injection
	// run replays from t=0 (tests only: the full-replay oracle of the
	// checkpoint equivalence suite).
	replayAll bool
	// executeAll turns equivalence pruning and memoization off, so
	// every injection run executes (tests only: the unpruned oracle of
	// the prune equivalence suite).
	executeAll bool
}

// JobErrorAction is OnJobError's verdict on a failed injection job.
type JobErrorAction int

const (
	// AbortOnError fails the campaign with the job's error (the zero
	// value, matching the unsupervised default).
	AbortOnError JobErrorAction = iota
	// RetryJob re-executes the failed job immediately.
	RetryJob
	// QuarantineJob gives up on the job, records it as
	// OutcomeQuarantined and continues the campaign without it.
	QuarantineJob
)

// QuarantinePolicy returns an OnJobError that retries a failing job
// until it has failed after consecutive times, then quarantines it —
// the supervisor policy of internal/runner, exposed for direct
// campaign users. logf (nil to discard) receives one line per retry
// and quarantine decision.
func QuarantinePolicy(after int, logf func(format string, args ...any)) func(inject.Injection, int, int, error) JobErrorAction {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return func(inj inject.Injection, caseIdx, attempt int, err error) JobErrorAction {
		if attempt < after {
			logf("campaign: retrying %v case %d after failure %d/%d: %v", inj, caseIdx, attempt, after, err)
			return RetryJob
		}
		logf("campaign: quarantining %v case %d after %d consecutive failures: %v", inj, caseIdx, attempt, err)
		return QuarantineJob
	}
}

// Outcome classifies one injection run — the paper's PROPANE tool
// records the same taxonomy (Section 4): an injected error may leave
// the target's data flow undisturbed (ok), deviate it (deviation),
// crash the target (crash) or drive it into non-termination (hang).
// Quarantined marks a poison job the supervisor gave up executing.
type Outcome string

const (
	// OutcomeOK: the run completed and no monitored signal deviated
	// from the Golden Run.
	OutcomeOK Outcome = "ok"
	// OutcomeDeviation: the run completed and at least one monitored
	// signal deviated.
	OutcomeDeviation Outcome = "deviation"
	// OutcomeCrash: target code panicked during the run; the panic
	// value is preserved in RunRecord.Detail.
	OutcomeCrash Outcome = "crash"
	// OutcomeHang: the run exceeded its Config.Budget and was
	// terminated by the watchdog.
	OutcomeHang Outcome = "hang"
	// OutcomeQuarantined: the job repeatedly crashed the worker and
	// was abandoned under the OnJobError policy; RunRecord.Detail
	// holds the last error and RunRecord.Attempts the failure count.
	OutcomeQuarantined Outcome = "quarantined"
)

// Valid reports whether o is one of the Outcome constants.
func (o Outcome) Valid() bool {
	switch o {
	case OutcomeOK, OutcomeDeviation, OutcomeCrash, OutcomeHang, OutcomeQuarantined:
		return true
	}
	return false
}

// Instance, RunnableInstance and Target re-export the target
// abstraction (see internal/target); *arrestor.Instance satisfies
// RunnableInstance, and internal/autobrake provides a second target.
type (
	Instance         = target.Instance
	RunnableInstance = target.RunnableInstance
	Target           = target.Target
)

// RunRecord is the per-run detail passed to Config.Observer.
type RunRecord struct {
	Injection inject.Injection
	CaseIndex int
	Fired     bool
	FiredAt   sim.Millis
	// Diffs holds the Golden Run Comparison result for the deviating
	// signals, in ascending name order; a signal without an entry
	// matched the golden run everywhere. A live run's slice is the one
	// its comparator allocated, shared with the aggregates and, in the
	// runner, with the journaled record: read it, never modify it.
	// (Replay also accepts a full result with non-deviating entries.)
	Diffs trace.Diffs
	// SystemFailure is true when any system output deviated; FailureAt
	// is the earliest first-difference over the system outputs (-1
	// when none deviated).
	SystemFailure bool
	FailureAt     sim.Millis
	// Attachment is whatever Config.Instrument returned for this run.
	Attachment any
	// Outcome classifies the run. Required on Config.Replay records.
	Outcome Outcome
	// Detail carries the crash panic value or the quarantine reason.
	Detail string
	// Attempts is the consecutive-failure count behind a quarantined
	// record (0 otherwise).
	Attempts int
	// Pruned labels how a pruned run's outcome was obtained (one of
	// the Pruned* constants); empty for a fully executed run. The
	// outcome itself is bit-identical either way, so the label is
	// documentation, never part of record identity.
	Pruned string
	// Round is the adaptive sampling batch this run settled in
	// (1-based; 0 for full-matrix campaigns). Like Pruned it documents
	// how the run was scheduled and is never part of record identity.
	Round int
	// Elapsed is the wall time a worker spent executing this run, from
	// building or restoring its instance to the final comparison. It is zero for
	// runs settled without executing (unfired, no-op, memoized),
	// quarantined jobs and replayed records; it is not journaled and
	// never part of record identity.
	Elapsed time.Duration
}

// PaperConfig returns the paper's full campaign: 25 test cases, 16
// bits, 10 instants from 0.5 s to 5.0 s — 16·10·25 = 4000 injections
// per input signal, 52 000 runs in total over the 13 input ports.
func PaperConfig() Config {
	return Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      physics.PaperGrid(),
		Times:          inject.PaperTimes(),
		Bits:           inject.AllBits(),
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

// ReducedConfig returns a scaled-down campaign (4 bits × 3 instants ×
// 4 test cases = 48 injections per input signal) that preserves the
// qualitative structure of the results while running in seconds. It
// is used by the test suite and the examples.
func ReducedConfig() Config {
	cases, err := physics.Grid(2, 2, 8000, 20000, 40, 80)
	if err != nil {
		// A library must not panic on a bad preset: defer the failure
		// to Validate, where it surfaces joined to ErrInvalidConfig.
		return Config{defect: fmt.Errorf("campaign: reduced grid invalid: %w", err)}
	}
	return Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{1000, 2500, 4000},
		Bits:           []uint{0, 5, 10, 15},
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

// ErrInvalidConfig is wrapped by every error Validate returns, so
// orchestration layers (internal/runner) can distinguish
// configuration mistakes from execution failures with errors.Is.
var ErrInvalidConfig = errors.New("campaign: invalid configuration")

// configError preserves the specific validation message while
// matching ErrInvalidConfig (and, for wrapped target errors, the
// underlying cause) under errors.Is/As.
type configError struct{ err error }

func (e *configError) Error() string   { return e.err.Error() }
func (e *configError) Unwrap() []error { return []error{e.err, ErrInvalidConfig} }

func invalidf(format string, args ...any) error {
	return &configError{err: fmt.Errorf(format, args...)}
}

// Validate reports configuration errors. Every returned error wraps
// ErrInvalidConfig.
func (c Config) Validate() error {
	if c.defect != nil {
		return &configError{err: c.defect}
	}
	if c.Custom != nil {
		if c.Custom.Topology == nil || c.Custom.New == nil {
			return invalidf("campaign: custom target needs Topology and New")
		}
	} else if err := c.Arrestor.Validate(); err != nil {
		return &configError{err: err}
	}
	if len(c.TestCases) == 0 {
		return invalidf("campaign: no test cases")
	}
	if len(c.Times) == 0 {
		return invalidf("campaign: no injection times")
	}
	if len(c.Bits) == 0 && len(c.Models) == 0 {
		return invalidf("campaign: no bits and no error models")
	}
	if c.HorizonMs <= 0 {
		return invalidf("campaign: horizon must be positive")
	}
	for _, at := range c.Times {
		if at < 0 || at >= c.HorizonMs {
			return invalidf("campaign: injection time %d outside [0,%d)", at, c.HorizonMs)
		}
	}
	switch c.Adaptive {
	case AdaptiveOff, AdaptiveAuto, AdaptiveForce:
	default:
		return invalidf("campaign: unknown adaptive mode %d", c.Adaptive)
	}
	if !(c.CIEpsilon >= 0 && c.CIEpsilon < 0.5) { // also rejects NaN
		return invalidf("campaign: CI epsilon %v outside [0, 0.5)", c.CIEpsilon)
	}
	if c.DirectWindowMs < 0 {
		return invalidf("campaign: negative direct window")
	}
	if c.FaultDurationMs < 0 {
		return invalidf("campaign: negative fault duration")
	}
	if c.Budget.Steps < 0 || c.Budget.Wall < 0 {
		return invalidf("campaign: negative run budget")
	}
	for _, m := range c.Models {
		if m != nil && !reflect.TypeOf(m).Comparable() { // JobIndex keys injections by value
			return invalidf("campaign: error model %T is not comparable", m)
		}
	}
	return nil
}

// PairStats holds the raw counts and the estimate for one
// input/output pair (one cell of the paper's Table 1).
type PairStats struct {
	Pair         core.Pair
	InputSignal  string
	OutputSignal string
	// Injections is n_inj: runs in which the trap fired on this input.
	Injections int
	// Errors is n_err: runs in which this output's trace deviated from
	// the Golden Run.
	Errors int
	// Estimate is n_err / n_inj (0 when nothing fired).
	Estimate float64
	// CI is the 95% Wilson interval of the estimate.
	CI stats.Interval
	// MeanLatencyMs is the mean propagation latency over the counted
	// error runs: the delay from the trap firing to the first
	// deviation of this output. Zero when no errors were counted.
	MeanLatencyMs float64
	// Transients and Permanents classify the counted error runs by
	// whether the output re-converged to the Golden Run within the
	// window (transient) or was still deviating at its end
	// (permanent). Transients + Permanents == Errors.
	Transients, Permanents int
	// Crashes and Hangs count runs injecting at this pair's input that
	// crashed or hung the target instead of completing. They are NOT
	// part of the Injections denominator: a crashed or hung run tells
	// us nothing about whether the error would have permeated, so
	// counting it would silently dilute the estimate.
	Crashes, Hangs int

	latencySum int64
	latencies  []float64
}

// LatencyPercentile returns the p-quantile (0..1) of the propagation
// latencies over the counted error runs; ok is false when no errors
// were counted.
func (ps *PairStats) LatencyPercentile(p float64) (float64, bool) {
	v, err := stats.Percentile(ps.latencies, p)
	if err != nil {
		return 0, false
	}
	return v, true
}

// LocationPropagation summarises, for one injection location (module
// input), how often injected errors propagated all the way to a system
// output — the quantity behind the uniform-propagation hypothesis of
// [12] that the paper's Section 2 disputes. Under that hypothesis the
// fraction would be close to 0 or 1 at every location.
type LocationPropagation struct {
	Module     string
	Signal     string
	Injections int
	Propagated int
	Fraction   float64
	// Crashes, Hangs and Quarantined count the supervised failure
	// modes of runs injecting at this location, excluded from the
	// Injections denominator.
	Crashes, Hangs, Quarantined int
}

// Result is the outcome of a campaign.
type Result struct {
	// Topology is the analysed system.
	Topology *model.System
	// Matrix holds the estimated permeability values (Table 1), ready
	// for the core analyses (Tables 2–4, trees, placement).
	Matrix *core.Matrix
	// Pairs holds raw statistics per input/output pair, in topology
	// order.
	Pairs []PairStats
	// Locations holds the per-location system-output propagation
	// fractions, in topology order.
	Locations []LocationPropagation
	// Runs is the number of settled injection jobs (completed runs
	// plus quarantined ones); Unfired counts completed runs whose trap
	// never fired (the module never read the input after the arm
	// time).
	Runs, Unfired int
	// Crashes and Hangs count runs terminated by a target panic or by
	// the watchdog; Quarantined lists the poison jobs the supervisor
	// abandoned. All three are excluded from every permeability
	// denominator, so a partial campaign stays honest about what it
	// measured.
	Crashes, Hangs int
	Quarantined    []QuarantinedJob
	// Pruning documents how the settled runs' outcomes were obtained
	// (executed vs pruned/memoized). It never affects the estimates —
	// pruned runs keep their synthesized outcomes in every denominator.
	Pruning PruneStats
	// Predictions is the analytical permeability forecast
	// (internal/estimate) computed from the topology and the golden
	// runs' signal activity — the prediction the report cross-validates
	// against the measured estimates. Always populated by Run.
	Predictions *estimate.Prediction
	// Adaptive documents the sequential sampler's spending; nil for
	// full-matrix campaigns.
	Adaptive *AdaptiveStats
}

// QuarantinedJob describes one poison job: an injection job abandoned
// after repeatedly crashing its worker.
type QuarantinedJob struct {
	Injection inject.Injection
	CaseIndex int
	// Attempts is how many consecutive executions failed before the
	// job was quarantined.
	Attempts int
	// Reason is the last failure's error text.
	Reason string
}

// runOutcome is one injection run's contribution to the aggregates.
type runOutcome struct {
	injection  inject.Injection
	caseIdx    int
	fired      bool
	firedAt    sim.Millis
	systemDiff bool
	failureAt  sim.Millis
	diffs      trace.Diffs // deviating signals, shared with the observer
	attachment any         // Instrument's per-run state
	outcome    Outcome
	detail     string // panic value (crash) or last error (quarantined)
	attempts   int    // consecutive failures behind a quarantine
	pruned     string // Pruned* label, "" for a fully executed run
	elapsed    time.Duration
}

// Plan returns the campaign's deterministic injection plan — the
// exact enumeration Run executes, in the same order. The executed job
// list is the cross product plan × TestCases, ordered plan-index
// major, case-index minor; work units and journal resume
// (internal/runner) rely on this enumeration being stable across
// processes for a given Config.
func (c Config) Plan() ([]inject.Injection, error) {
	sys := c.topology()
	var plan []inject.Injection
	if len(c.Models) > 0 {
		plan = inject.ModelPlan(sys, c.Times, c.Models)
	} else {
		plan = inject.BitFlipPlan(sys, c.Times, c.Bits)
	}
	if c.OnlyModule != "" {
		var filtered []inject.Injection
		for _, inj := range plan {
			if inj.Module == c.OnlyModule {
				filtered = append(filtered, inj)
			}
		}
		plan = filtered
		if len(plan) == 0 {
			return nil, fmt.Errorf("campaign: module %q has no injectable inputs", c.OnlyModule)
		}
	}
	return plan, nil
}

// JobIndex numbers a campaign's jobs: job = plan index × #cases + case
// index, the numbering journals, work units, Config.Skip and the
// adaptive schedule share. Injections are keyed by value, so a lookup
// formats nothing.
type JobIndex struct {
	plan  map[inject.Injection]int
	cases int
}

// NewJobIndex indexes the jobs of plan × cases test cases.
func NewJobIndex(plan []inject.Injection, cases int) *JobIndex {
	ji := &JobIndex{plan: make(map[inject.Injection]int, len(plan)), cases: cases}
	for pi, inj := range plan {
		ji.plan[inj] = pi
	}
	return ji
}

// Job returns the index of the job injecting inj into test case
// caseIdx; false when the campaign plans no such job.
func (ji *JobIndex) Job(inj inject.Injection, caseIdx int) (int, bool) {
	pi, ok := ji.plan[inj]
	if !ok || caseIdx < 0 || caseIdx >= ji.cases {
		return 0, false
	}
	return pi*ji.cases + caseIdx, true
}

// Run records the campaign's Golden Runs, executes the campaign and
// aggregates the permeability matrix.
func Run(cfg Config) (*Result, error) {
	g, err := RecordGolden(cfg)
	if err != nil {
		return nil, err
	}
	return g.Run(cfg)
}

// Run executes the campaign cfg against the recorded Golden Runs and
// aggregates the permeability matrix. cfg must describe the recording
// (see RecordGolden); it may differ in everything the golden pass does
// not depend on — Skip, Replay, Observer, Abort, Memo, Workers, the
// adaptive mode.
func (g *Golden) Run(cfg Config) (*Result, error) {
	if err := g.check(cfg); err != nil {
		return nil, err
	}
	sys := cfg.topology()
	preds := g.preds

	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}

	type job struct {
		inj     inject.Injection
		caseIdx int
	}
	// The analytical forecast is always attached to the result;
	// adaptive campaigns additionally use it to importance-order their
	// sampling.
	pred := g.predict(sys)
	adaptive := cfg.adaptiveEnabled()
	// A full-matrix campaign dispatches its jobs in index order, job i
	// injecting plan[i/cases] into case i%cases, and asks Skip about
	// each once, in that order: up to the first job it keeps here, the
	// rest as the feeder reaches them. Golden builds every checkpoint of
	// a case once, so no grouping buys restore locality; aggregation is
	// order-independent and journal records identify jobs by content.
	// Adaptive campaigns dispatch no index: the scheduler owns dispatch.
	cases := len(cfg.TestCases)
	total := len(plan) * cases
	skip := func(i int) bool { return cfg.Skip != nil && cfg.Skip(i) }
	first := total
	if !adaptive {
		first = 0
		for first < total && skip(first) {
			first++
		}
	}
	e := &engine{cfg: cfg, sys: sys, g: g}
	if (adaptive || first < total) && preds != nil && cfg.pruningEnabled() {
		e.pr = newPruner(cfg, preds)
		if g.fastForward(cfg) && cfg.FaultDurationMs <= 0 {
			e.siblings = g.siblingTable(cfg)
		}
	}
	var sched *adaptiveScheduler
	if adaptive {
		sched, err = newAdaptiveScheduler(cfg, plan, preds, pred)
		if err != nil {
			return nil, err
		}
		// Seed the scheduler with the replayed records before dispatch
		// starts: their samples are settled, so resume never re-executes
		// them and every stopping decision replays bit-identically.
		for _, rec := range cfg.Replay {
			out, err := recordOutcome(sys, rec)
			if err != nil {
				return nil, err
			}
			if _, err := sched.observe(out); err != nil {
				return nil, fmt.Errorf("campaign: replaying into adaptive schedule: %w", err)
			}
		}
	}

	jobs := make(chan job)
	outcomes := make(chan runOutcome)

	// First error wins; done stops the feeder so workers can drain.
	done := make(chan struct{})
	var failOnce sync.Once
	var firstErr error
	fail := func(err error) {
		failOnce.Do(func() {
			firstErr = err
			close(done)
		})
	}

	var wg sync.WaitGroup
	for w := 0; w < cfg.ResolvedWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := e.newWorker()
			for j := range jobs {
				out, err := w.superviseJob(j.caseIdx, j.inj)
				if err != nil {
					fail(err)
					continue // keep draining jobs so the feeder never blocks
				}
				outcomes <- out
			}
		}()
	}
	go func() {
		defer close(jobs)
		if sched != nil {
			for {
				if cfg.Abort != nil && cfg.Abort() {
					return
				}
				sj, ok := sched.next(done)
				if !ok {
					return
				}
				select {
				case jobs <- job{inj: plan[sj.planIdx], caseIdx: sj.caseIdx}:
				case <-done:
					return
				}
			}
		}
		for i := first; i < total; i++ {
			if i > first && skip(i) {
				continue
			}
			if cfg.Abort != nil && cfg.Abort() {
				return
			}
			select {
			case jobs <- job{inj: plan[i/cases], caseIdx: i % cases}:
			case <-done:
				return
			}
		}
	}()
	go func() {
		wg.Wait()
		close(outcomes)
	}()

	totalRuns := total
	if sched != nil {
		// The fireable population bounds an adaptive campaign from
		// above; the stopping rule usually closes far earlier.
		totalRuns = sched.population
	}
	res := newResult(sys, cfg.DirectWindowMs, int(cfg.HorizonMs))
	for _, rec := range cfg.Replay {
		if err := res.absorbRecord(sys, rec); err != nil {
			fail(err)
			break
		}
	}
	for out := range outcomes {
		round := 0
		if sched != nil {
			r, oerr := sched.observe(out)
			if oerr != nil {
				fail(oerr)
			} else {
				round = r
			}
		}
		res.absorb(sys, out)
		if cfg.Progress != nil {
			cfg.Progress(res.Runs, totalRuns)
		}
		if cfg.Observer != nil {
			cfg.Observer(RunRecord{
				Injection:     out.injection,
				CaseIndex:     out.caseIdx,
				Fired:         out.fired,
				FiredAt:       out.firedAt,
				Diffs:         out.diffs,
				SystemFailure: out.systemDiff,
				FailureAt:     out.failureAt,
				Attachment:    out.attachment,
				Outcome:       out.outcome,
				Detail:        out.detail,
				Attempts:      out.attempts,
				Pruned:        out.pruned,
				Round:         round,
				Elapsed:       out.elapsed,
			})
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	if err := res.finalise(sys); err != nil {
		return nil, err
	}
	res.Predictions = pred
	if sched != nil {
		st := sched.stats()
		res.Adaptive = &st
	}
	return res.Result, nil
}

// Fold aggregates settled records (no job repeated) into the Result a
// Run replaying them would return, dispatching nothing. An adaptive
// campaign passes the planner that observed exactly recs, for
// Result.Adaptive; a full-matrix campaign passes nil.
func (g *Golden) Fold(cfg Config, recs []RunRecord, planner *AdaptivePlanner) (*Result, error) {
	if err := g.check(cfg); err != nil {
		return nil, err
	}
	if cfg.adaptiveEnabled() != (planner != nil) {
		return nil, invalidf("campaign: an adaptive campaign folds with its planner, a full-matrix one without")
	}
	sys := cfg.topology()
	res := newResult(sys, cfg.DirectWindowMs, int(cfg.HorizonMs))
	for _, rec := range recs {
		if err := res.absorbRecord(sys, rec); err != nil {
			return nil, err
		}
	}
	if err := res.finalise(sys); err != nil {
		return nil, err
	}
	res.Predictions = g.predict(sys)
	if planner != nil {
		st := planner.Stats()
		res.Adaptive = &st
	}
	return res.Result, nil
}

// System returns the module/signal topology of the selected target —
// the model injections are planned over and results are keyed by.
func (c Config) System() *model.System { return c.topology() }

// topology returns the system model of the selected target.
func (c Config) topology() *model.System {
	switch {
	case c.Custom != nil:
		return c.Custom.Topology()
	case c.Dual:
		return arrestor.DualTopology()
	default:
		return arrestor.Topology()
	}
}

// NewInstance builds a fresh target instance of the selected
// configuration — the same constructor the campaign uses internally,
// exposed so callers (e.g. internal/edm's assertion study) can run
// matching golden simulations.
func (c Config) NewInstance(tc physics.TestCase, hook sim.ReadHook) (RunnableInstance, error) {
	switch {
	case c.Custom != nil:
		return c.Custom.New(tc, hook)
	case c.Dual:
		return arrestor.NewDualInstance(arrestor.DualFrom(c.Arrestor), tc, hook)
	default:
		return arrestor.NewInstance(c.Arrestor, tc, hook)
	}
}

// ResolvedWorkers returns the number of concurrent runs in effect:
// Config.Workers, or GOMAXPROCS when it is <= 0.
func (c Config) ResolvedWorkers() int {
	if c.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return c.Workers
}

// engine is what the workers of one Golden.Run share.
type engine struct {
	cfg Config
	sys *model.System
	g   *Golden
	// pr settles runs without executing them; nil when the campaign
	// does not prune.
	pr *pruner
	// siblings is the sibling table this Run shares (see
	// Golden.siblingTable); nil unless fired transient runs are probed.
	siblings *trajectories
}

// worker is what one worker goroutine of a Run keeps from run to run:
// per test case, the instance its fast-forwarded runs restore into.
type worker struct {
	*engine
	// slots holds one runSlot per test case, built on first use; a
	// run takes its case's slot and gives it back only when it ends
	// neither crashed nor hung, so every run that fails drops it.
	slots []*runSlot
}

func (e *engine) newWorker() *worker {
	return &worker{engine: e, slots: make([]*runSlot, len(e.cfg.TestCases))}
}

// armedTrap unifies the transient (paper) and persistent traps.
type armedTrap interface {
	Read(module, signal string, sig *sim.Signal, now sim.Millis) (detach bool)
	Fired() (sim.Millis, bool)
}

// runSlot is one instance of a test case wired for injection runs:
// its read hook forwards to the slot's trap, which each run re-arms,
// and a comparator against the case's golden run is its post-hook.
// A slot a worker keeps serves run after run, each restoring a
// checkpoint into it (sim.Snapshotter.Restore re-attaches the readers
// the last run's trap detached), so a run allocates no instance, hook
// or comparator of its own.
type runSlot struct {
	inst RunnableInstance
	cmp  *trace.StreamComparator
	trap armedTrap // &transient or &persistent

	transient  inject.Trap
	persistent inject.PersistentTrap
}

// newRunSlot builds a slot for test case caseIdx.
func (e *engine) newRunSlot(caseIdx int) (*runSlot, error) {
	s := &runSlot{}
	s.trap = &s.transient
	if e.cfg.FaultDurationMs > 0 {
		s.trap = &s.persistent
	}
	inst, err := e.cfg.NewInstance(e.cfg.TestCases[caseIdx], func(module, signal string, sig *sim.Signal, now sim.Millis) bool {
		return s.trap.Read(module, signal, sig, now)
	})
	if err != nil {
		return nil, err
	}
	if s.cmp, err = trace.AcquireStreamComparator(e.g.traces[caseIdx], inst.Bus()); err != nil {
		return nil, err
	}
	s.cmp.SetTolerances(e.cfg.Tolerances)
	inst.Kernel().AddPostHook(s.cmp.Hook())
	s.inst = inst
	return s, nil
}

// arm prepares the slot for one run injecting inj.
func (s *runSlot) arm(inj inject.Injection, faultDuration sim.Millis) {
	if faultDuration > 0 {
		s.persistent.Arm(inj, faultDuration)
	} else {
		s.transient.Arm(inj)
	}
	s.cmp.Reset()
}

// superviseJob drives one injection job to a settled outcome under
// the fault-isolation policy: worker panics become errors, errors
// consult Config.OnJobError, and a quarantined job yields an
// OutcomeQuarantined record instead of failing the campaign.
func (w *worker) superviseJob(caseIdx int, inj inject.Injection) (runOutcome, error) {
	attempt := 0
	for {
		out, err := w.supervisedRun(caseIdx, inj)
		if err == nil {
			return out, nil
		}
		attempt++
		action := AbortOnError
		if w.cfg.OnJobError != nil {
			action = w.cfg.OnJobError(inj, caseIdx, attempt, err)
		}
		switch action {
		case RetryJob:
			continue
		case QuarantineJob:
			return runOutcome{
				injection: inj,
				caseIdx:   caseIdx,
				outcome:   OutcomeQuarantined,
				detail:    err.Error(),
				attempts:  attempt,
				failureAt: -1,
			}, nil
		default:
			return runOutcome{}, err
		}
	}
}

// supervisedRun executes one injection run with worker-level fault
// isolation: a panic outside the guarded target execution (instance
// construction, instrumentation, comparison setup) is converted into
// an error so the retry/quarantine policy can handle it.
func (w *worker) supervisedRun(caseIdx int, inj inject.Injection) (out runOutcome, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("campaign: worker panic on %v case %d: %v", inj, caseIdx, r)
		}
	}()
	return w.injectionRun(caseIdx, inj)
}

// runGuarded drives the instance to the horizon, converting a panic
// raised by target code into a crash classification. Budget
// exhaustion is recovered inside the kernel itself and reported via
// Kernel.Exhausted, so the two failure modes stay distinguishable.
func runGuarded(inst RunnableInstance, horizon sim.Millis) (crashed bool, panicVal any) {
	defer func() {
		if r := recover(); r != nil {
			crashed, panicVal = true, r
		}
	}()
	inst.Run(horizon)
	return false, nil
}

// injectionRun executes one injection run against one test case and
// returns its outcome. When fast-forwarding it restores the golden
// snapshot at the injection instant into the worker's instance of the
// case and simulates only [At, horizon); otherwise it builds an
// instance and replays from t=0. The paths are bit-identical: a trap
// has no effect before its arm time, so the skipped prefix is exactly
// the uninjected prefix the snapshot captured, and a restored instance
// continues as a fresh one would. With a pruner available the job may
// be settled without simulating at all (see prune.go), and an
// executing transient run is probed for reconvergence (see
// executeToHorizon).
func (w *worker) injectionRun(caseIdx int, inj inject.Injection) (runOutcome, error) {
	cfg, sys := w.cfg, w.sys
	var snap *sim.Snapshot
	if w.g.fastForward(cfg) {
		snaps, err := w.g.checkpoints(caseIdx)
		if err != nil {
			// Checkpoint failures flow through the same retry/quarantine
			// policy as any other job infrastructure error.
			return runOutcome{}, err
		}
		i, _ := w.g.tickIndex(inj.At)
		snap = snaps[i]
	}
	var mk *MemoKey
	if w.pr != nil {
		out, pruned, key, err := w.pr.classify(sys, caseIdx, inj, snap)
		if err != nil {
			return runOutcome{}, err
		}
		if pruned {
			return out, nil
		}
		mk = key
	}
	start := time.Now()
	// A fast-forwarded run takes its worker's slot of the case; any
	// other run — and the unpruned oracle, kept independent of reuse —
	// builds its own and recycles its comparator when it ends.
	reuse := snap != nil && !cfg.executeAll
	var s *runSlot
	if reuse {
		s, w.slots[caseIdx] = w.slots[caseIdx], nil
	}
	if s == nil {
		var err error
		if s, err = w.newRunSlot(caseIdx); err != nil {
			return runOutcome{}, fmt.Errorf("campaign: injection %v case %d: %w", inj, caseIdx, err)
		}
		if !reuse {
			// DeviatingDiffs and SuffixSinceInto copy the results out and the
			// instance (with the comparator's stale post-hook) is
			// discarded with this run, so the comparator can be recycled.
			defer trace.ReleaseStreamComparator(s.cmp)
		}
	}
	s.arm(inj, cfg.FaultDurationMs)
	inst, cmp := s.inst, s.cmp
	var attachment any
	if cfg.Instrument != nil {
		var err error
		if attachment, err = cfg.Instrument(inst, caseIdx); err != nil {
			return runOutcome{}, fmt.Errorf("campaign: instrumenting %v case %d: %w", inj, caseIdx, err)
		}
	}
	// SetBudget resets the step accounting; Restore then rewinds it to
	// the snapshot's value, so a fast-forwarded run exhausts its budget
	// at exactly the tick a full replay would.
	inst.Kernel().SetBudget(cfg.Budget)
	if snap != nil {
		ck, ok := inst.(target.Checkpointable)
		if !ok {
			return runOutcome{}, fmt.Errorf("campaign: injection %v case %d: instance lost checkpoint support", inj, caseIdx)
		}
		if err := ck.Restore(snap); err != nil {
			return runOutcome{}, fmt.Errorf("campaign: restoring checkpoint for %v case %d: %w", inj, caseIdx, err)
		}
		// The skipped prefix matched the golden run by construction;
		// comparison starts at the checkpoint tick.
		if err := cmp.SeekTo(int(snap.Now)); err != nil {
			return runOutcome{}, fmt.Errorf("campaign: seeking comparator for %v case %d: %w", inj, caseIdx, err)
		}
	}
	end, err := w.executeToHorizon(s, caseIdx, inj.At)
	if err != nil {
		return runOutcome{}, fmt.Errorf("campaign: splicing %v case %d: %w", inj, caseIdx, err)
	}
	if err := cmp.Err(); err != nil {
		return runOutcome{}, fmt.Errorf("campaign: comparing %v case %d: %w", inj, caseIdx, err)
	}

	firedAt, fired := s.trap.Fired()
	out := runOutcome{
		injection:  inj,
		caseIdx:    caseIdx,
		fired:      fired,
		firedAt:    firedAt,
		diffs:      cmp.DeviatingDiffs(), // partial up to the crash/hang point — still recorded
		attachment: attachment,
		elapsed:    time.Since(start),
	}
	out.failureAt = -1
	if end.converged {
		out.pruned = PrunedConverged
	}
	switch {
	case end.spliced.outcome != "":
		out.outcome, out.detail = end.spliced.outcome, end.spliced.detail
	case inst.Kernel().Exhausted():
		out.outcome = OutcomeHang
	case end.crashed:
		out.outcome = OutcomeCrash
		out.detail = fmt.Sprintf("%v", end.panicVal)
	default:
		if err := finishOutcome(sys, &out); err != nil {
			return runOutcome{}, err
		}
	}
	// Publish what followed each state this run registered as a
	// sibling trajectory; a completed run's outcome is recomputed from
	// the spliced diffs, so only crashes and hangs travel with them.
	ending, detail := Outcome(""), ""
	if out.outcome == OutcomeCrash || out.outcome == OutcomeHang {
		ending, detail = out.outcome, out.detail
	}
	for _, p := range end.pending[:end.npending] {
		w.siblings.finish(p.tr, cmp.SuffixSinceInto(p.tr.suffix, p.mark), ending, detail)
	}
	if w.pr != nil {
		w.pr.store(mk, out)
	}
	if reuse && ending == "" {
		w.slots[caseIdx] = s
	}
	return out, nil
}

// runEnd is how executeToHorizon stopped a run.
type runEnd struct {
	crashed  bool
	panicVal any
	// converged: the run stopped early, at a probe tick where its state
	// was the golden run's or a finished sibling's (spliced).
	converged bool
	spliced   spliced
	// pending are the sibling entries this run registered, each with
	// its comparator mark, to finish once the run's outcome is known.
	pending  [len(probeOffsets)]pendingTrajectory
	npending int
}

type pendingTrajectory struct {
	tr   *trajectory
	mark int
}

// executeToHorizon drives an injection run to the horizon. When the
// campaign probes (a pruning, fast-forwarding, transient campaign), a
// run is instead driven in segments to its probe ticks: its injection
// instant plus each probeOffset, then every later instant. At each
// probe after the trap has fired, the live state is compared in place
// — nothing is captured unless it is registered:
//
//   - if it equals the golden snapshot there, the remaining suffix is
//     by determinism the golden run's — its diffs are final and it can
//     neither crash (the suffix is golden) nor hang (the golden run
//     finished within budget, and the step accounting matched when a
//     step budget is armed) — so the run stops, converged;
//   - else, at an early probe tick, if it equals the state a finished
//     sibling run reached there, the sibling's suffix — its diffs and
//     any crash or hang — is spliced into the comparison and the run
//     stops, converged; otherwise the state is captured and registered
//     for later siblings, unless an equal one is already pending.
func (w *worker) executeToHorizon(s *runSlot, caseIdx int, at sim.Millis) (end runEnd, err error) {
	inst, cmp := s.inst, s.cmp
	ck, checkpointable := inst.(target.Checkpointable)
	if w.siblings == nil || !checkpointable {
		end.crashed, end.panicVal = runGuarded(inst, w.cfg.HorizonMs)
		return end, nil
	}
	snaps, err := w.g.checkpoints(caseIdx)
	if err != nil {
		return end, err
	}
	from, _ := w.g.tickIndex(at)
	for i := from + 1; i < len(w.g.ticks); i++ {
		probe := w.g.ticks[i]
		early := earlyProbe(probe.at - at)
		if !early && !probe.instant {
			continue
		}
		if end.crashed, end.panicVal = runGuarded(inst, probe.at); end.crashed || inst.Kernel().Exhausted() {
			return end, nil
		}
		if _, hasFired := s.trap.Fired(); !hasFired {
			continue
		}
		used := inst.Kernel().BudgetUsed()
		if w.siblings.matches(ck, used, snaps[i]) {
			end.converged = true
			return end, nil
		}
		if !early {
			continue
		}
		key := trajectoryKey{caseIdx: caseIdx, tick: probe.at, row: rowHash(inst.Bus().Values())}
		sp, mine, err := w.siblings.visit(key, ck, used, snaps[i], cmp)
		if err != nil {
			return end, err
		}
		if sp.ok {
			end.converged, end.spliced = true, sp
			return end, nil
		}
		if mine != nil {
			end.pending[end.npending] = pendingTrajectory{tr: mine, mark: cmp.Mark()}
			end.npending++
		}
	}
	end.crashed, end.panicVal = runGuarded(inst, w.cfg.HorizonMs)
	return end, nil
}

// finishOutcome derives the epilogue of a completed (neither crashed
// nor hung) run from its diffs: the ok/deviation outcome and the
// system-failure classification; an output's first deviation is read
// from out.diffs where it is needed (outputDiff). out.failureAt must
// be initialised to -1. out.diffs is sparse — it carries deviating
// signals only, so a missing entry means "matched the golden run
// everywhere". Shared between executed and memoized runs so
// synthesized records are derived by the exact same code. A run
// injected into a module outside the topology is an error.
func finishOutcome(sys *model.System, out *runOutcome) error {
	diffs := out.diffs
	if _, err := sys.Module(out.injection.Module); err != nil {
		return err
	}
	out.outcome = OutcomeOK
	if len(diffs) > 0 {
		out.outcome = OutcomeDeviation
	}
	for _, d := range diffs {
		if sys.IsSystemOutput(d.Signal) {
			out.systemDiff = true
			if out.failureAt < 0 || d.First < out.failureAt {
				out.failureAt = d.First
			}
		}
	}
	return nil
}

// aggregator accumulates outcomes into the final Result.
type aggregator struct {
	*Result
	pairIdx      map[core.Pair]int
	locIdx       map[[2]string]int
	locPrune     []PruneSignalCounts // pruning counters, aligned with Locations
	directWindow sim.Millis
	horizonLen   int
}

func newResult(sys *model.System, directWindow sim.Millis, horizonLen int) *aggregator {
	agg := &aggregator{
		Result:       &Result{Topology: sys, Matrix: core.NewMatrix(sys)},
		pairIdx:      make(map[core.Pair]int),
		locIdx:       make(map[[2]string]int),
		directWindow: directWindow,
		horizonLen:   horizonLen,
	}
	for _, mod := range sys.Modules() {
		for _, in := range mod.Inputs {
			key := [2]string{mod.Name, in.Signal}
			agg.locIdx[key] = len(agg.Locations)
			agg.Locations = append(agg.Locations, LocationPropagation{
				Module: mod.Name, Signal: in.Signal,
			})
			agg.locPrune = append(agg.locPrune, PruneSignalCounts{})
			for _, o := range mod.Outputs {
				p := core.Pair{Module: mod.Name, In: in.Index, Out: o.Index}
				agg.pairIdx[p] = len(agg.Pairs)
				agg.Pairs = append(agg.Pairs, PairStats{
					Pair:         p,
					InputSignal:  in.Signal,
					OutputSignal: o.Signal,
				})
			}
		}
	}
	return agg
}

// absorbRecord folds a previously recorded run (Config.Replay, e.g.
// replayed from a journal) into the aggregates. A record's
// Diffs may carry only the deviating signals: a missing or
// non-deviating entry counts as "no deviation", exactly as in a live
// run. The entries must be in ascending signal order.
func (agg *aggregator) absorbRecord(sys *model.System, rec RunRecord) error {
	out, err := recordOutcome(sys, rec)
	if err != nil {
		return err
	}
	agg.absorb(sys, out)
	return nil
}

// recordOutcome reconstructs a run's aggregate contribution from its
// record — the inverse of the RunRecord construction in Run, shared by
// replay aggregation and the adaptive scheduler so both fold journaled
// and live runs through identical logic.
func recordOutcome(sys *model.System, rec RunRecord) (runOutcome, error) {
	out := runOutcome{
		injection:  rec.Injection,
		caseIdx:    rec.CaseIndex,
		fired:      rec.Fired,
		firedAt:    rec.FiredAt,
		systemDiff: rec.SystemFailure,
		failureAt:  rec.FailureAt,
		diffs:      rec.Diffs,
		attachment: rec.Attachment,
		outcome:    rec.Outcome,
		detail:     rec.Detail,
		attempts:   rec.Attempts,
		pruned:     rec.Pruned,
	}
	if !out.outcome.Valid() {
		return runOutcome{}, fmt.Errorf("campaign: replaying %v: unknown outcome %q", rec.Injection, rec.Outcome)
	}
	if !rec.Diffs.Ascending() {
		return runOutcome{}, fmt.Errorf("campaign: replaying %v: diffs not in ascending signal order", rec.Injection)
	}
	if rec.Fired && out.outcome != OutcomeQuarantined {
		if _, err := sys.Module(rec.Injection.Module); err != nil {
			return runOutcome{}, fmt.Errorf("campaign: replaying %v: %w", rec.Injection, err)
		}
	}
	return out, nil
}

// outputDiff returns the deviation of output signal sig, read from
// the run's diffs; ok is false when the output never deviated.
func (out *runOutcome) outputDiff(sig string) (d trace.Diff, ok bool) {
	d, ok = out.diffs.Get(sig)
	if !ok || !d.Differs() || d.First < 0 {
		return trace.Diff{}, false
	}
	return d, true
}

func (agg *aggregator) absorb(sys *model.System, out runOutcome) {
	agg.Runs++
	agg.countPrune(out)
	switch out.outcome {
	case OutcomeQuarantined:
		agg.Quarantined = append(agg.Quarantined, QuarantinedJob{
			Injection: out.injection,
			CaseIndex: out.caseIdx,
			Attempts:  out.attempts,
			Reason:    out.detail,
		})
		if li, ok := agg.locIdx[[2]string{out.injection.Module, out.injection.Signal}]; ok {
			agg.Locations[li].Quarantined++
		}
		return
	case OutcomeCrash, OutcomeHang:
		// The injection location is known even when the trap state is
		// unreliable (the run died); attribute the failure mode there
		// and keep it out of every n_inj denominator.
		if out.outcome == OutcomeCrash {
			agg.Crashes++
		} else {
			agg.Hangs++
		}
		mod, err := sys.Module(out.injection.Module)
		if err != nil {
			return
		}
		li, ok := agg.locIdx[[2]string{out.injection.Module, out.injection.Signal}]
		if !ok {
			return
		}
		if out.outcome == OutcomeCrash {
			agg.Locations[li].Crashes++
		} else {
			agg.Locations[li].Hangs++
		}
		inIdx := mod.InputIndex(out.injection.Signal)
		for _, o := range mod.Outputs {
			p := core.Pair{Module: mod.Name, In: inIdx, Out: o.Index}
			ps := &agg.Pairs[agg.pairIdx[p]]
			if out.outcome == OutcomeCrash {
				ps.Crashes++
			} else {
				ps.Hangs++
			}
		}
		return
	}
	if !out.fired {
		agg.Unfired++
		return
	}
	mod, err := sys.Module(out.injection.Module)
	if err != nil {
		return
	}
	inIdx := mod.InputIndex(out.injection.Signal)
	loc := &agg.Locations[agg.locIdx[[2]string{out.injection.Module, out.injection.Signal}]]
	loc.Injections++
	if out.systemDiff {
		loc.Propagated++
	}
	for _, o := range mod.Outputs {
		p := core.Pair{Module: mod.Name, In: inIdx, Out: o.Index}
		ps := &agg.Pairs[agg.pairIdx[p]]
		ps.Injections++
		d, ok := out.outputDiff(o.Signal)
		if !ok {
			continue
		}
		if agg.directWindow == 0 || d.First <= out.firedAt+agg.directWindow {
			ps.Errors++
			ps.latencySum += int64(d.First - out.firedAt)
			ps.latencies = append(ps.latencies, float64(d.First-out.firedAt))
			switch d.Classify(agg.horizonLen) {
			case trace.ClassPermanent:
				ps.Permanents++
			default:
				ps.Transients++
			}
		}
	}
}

// countPrune folds one settled run into the pruning-effectiveness
// counters of its location, by index; finalise names them and sums
// the totals. Quarantined jobs are excluded: they were neither
// executed nor pruned, and they are already surfaced separately.
func (agg *aggregator) countPrune(out runOutcome) {
	if out.outcome == OutcomeQuarantined {
		return
	}
	if li, ok := agg.locIdx[[2]string{out.injection.Module, out.injection.Signal}]; ok {
		agg.locPrune[li].add(out.pruned)
		return
	}
	// A replayed record may name a location outside the topology; it
	// is counted under its name.
	st := &agg.Pruning
	if st.PerSignal == nil {
		st.PerSignal = make(map[string]PruneSignalCounts)
	}
	loc := out.injection.Signal + "@" + out.injection.Module
	sc := st.PerSignal[loc]
	sc.add(out.pruned)
	st.PerSignal[loc] = sc
}

// finalisePruning keys the per-location pruning counters by
// "signal@module" and sums them into the totals.
func (agg *aggregator) finalisePruning() {
	st := &agg.Pruning
	for li, sc := range agg.locPrune {
		if sc == (PruneSignalCounts{}) {
			continue
		}
		if st.PerSignal == nil {
			st.PerSignal = make(map[string]PruneSignalCounts)
		}
		loc := agg.Locations[li]
		st.PerSignal[loc.Signal+"@"+loc.Module] = sc
	}
	for _, sc := range st.PerSignal {
		st.NoOp += sc.NoOp
		st.Unfired += sc.Unfired
		st.Memoized += sc.Memoized
		st.Store += sc.Store
		st.Converged += sc.Converged
		st.Executed += sc.Executed
	}
}

func (agg *aggregator) finalise(sys *model.System) error {
	agg.finalisePruning()
	for i := range agg.Pairs {
		ps := &agg.Pairs[i]
		if ps.Injections > 0 {
			ps.Estimate = float64(ps.Errors) / float64(ps.Injections)
			if ci, err := stats.WilsonInterval(ps.Errors, ps.Injections, 1.96); err == nil {
				ps.CI = ci
			}
		}
		if ps.Errors > 0 {
			ps.MeanLatencyMs = float64(ps.latencySum) / float64(ps.Errors)
		}
		// Setting a measured estimate can only fail on programming
		// errors (pair enumerated from the topology itself); surface
		// them as errors rather than panicking out of the library.
		if err := agg.Matrix.Set(ps.Pair.Module, ps.Pair.In, ps.Pair.Out, ps.Estimate); err != nil {
			return &configError{err: fmt.Errorf("campaign: internal pair bookkeeping broken: %w", err)}
		}
	}
	for i := range agg.Locations {
		loc := &agg.Locations[i]
		if loc.Injections > 0 {
			loc.Fraction = float64(loc.Propagated) / float64(loc.Injections)
		}
	}
	// The quarantine list accretes in worker-completion order; sort it
	// so resumed and uninterrupted campaigns render identically.
	sort.Slice(agg.Quarantined, func(i, j int) bool {
		qi, qj := agg.Quarantined[i], agg.Quarantined[j]
		if si, sj := qi.Injection.String(), qj.Injection.String(); si != sj {
			return si < sj
		}
		return qi.CaseIndex < qj.CaseIndex
	})
	_ = sys
	return nil
}

// NonUniformLocations returns the injection locations whose
// system-output propagation fraction is strictly between lo and hi —
// direct counterexamples to uniform propagation ("for location l
// either all data errors would propagate to the system output or none
// of them would", Section 2).
func (r *Result) NonUniformLocations(lo, hi float64) []LocationPropagation {
	var out []LocationPropagation
	for _, loc := range r.Locations {
		if loc.Injections > 0 && loc.Fraction > lo && loc.Fraction < hi {
			out = append(out, loc)
		}
	}
	return out
}

// PairBySignal returns the statistics for the pair identified by
// module and signal names.
func (r *Result) PairBySignal(module, inSignal, outSignal string) (PairStats, error) {
	for _, ps := range r.Pairs {
		if ps.Pair.Module == module && ps.InputSignal == inSignal && ps.OutputSignal == outSignal {
			return ps, nil
		}
	}
	return PairStats{}, fmt.Errorf("campaign: no pair %s:%s->%s", module, inSignal, outSignal)
}
