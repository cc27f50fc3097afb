package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/target"
	"propane/internal/trace"
)

// Golden is a campaign's recorded Golden Runs (Section 6): one trace
// per test case and, when the campaign prunes or samples adaptively,
// the firing predictions its instrumented reads streamed out. The
// recording depends only on the target, the test cases, the injection
// instants, the horizon and the fault duration, so one RecordGolden
// serves every Run, Fold, Planner and Digests call of a campaign. A
// Golden is read-only once recorded, apart from what it builds on
// first use and shares across Runs: the golden snapshots for
// checkpoint fast-forward (checkpoint.go), once per test case, and the
// sibling table (prune.go).
type Golden struct {
	traces []*trace.Trace
	preds  []casePredictions // nil unless captured

	// Checkpoint fast-forward (checkpoint.go): whether the golden runs'
	// instances were checkpointable, the recording's target
	// construction and budget, the checkpoint ticks, and the per-case
	// snapshot sets built from them on first use.
	checkpointable bool
	target         Config
	ticks          []checkpointTick
	ckpts          []caseCheckpoints

	// siblings is the sibling table of the first Run that probed; later
	// Runs in its scope share it.
	siblingsMu sync.Mutex
	siblings   *trajectories

	// What the recording describes; check rejects any other config.
	cases         []physics.TestCase
	times         []sim.Millis
	horizon       sim.Millis
	faultDuration sim.Millis
}

// RecordGolden validates cfg and records one Golden Run per test
// case, fanned out over cfg.ResolvedWorkers() goroutines (each run is
// independent and deterministic, so the traces are identical to a
// serial recording). When the campaign prunes or samples adaptively,
// each golden run also streams its instrumented reads into the
// per-case firing predictions.
func RecordGolden(cfg Config) (*Golden, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capture := cfg.pruningEnabled() || cfg.adaptiveEnabled()
	g := &Golden{
		traces:        make([]*trace.Trace, len(cfg.TestCases)),
		preds:         make([]casePredictions, len(cfg.TestCases)),
		target:        Config{Arrestor: cfg.Arrestor, Dual: cfg.Dual, Custom: cfg.Custom, Budget: cfg.Budget},
		ticks:         checkpointTicks(cfg.Times, cfg.HorizonMs),
		ckpts:         make([]caseCheckpoints, len(cfg.TestCases)),
		cases:         slices.Clone(cfg.TestCases),
		times:         slices.Clone(cfg.Times),
		horizon:       cfg.HorizonMs,
		faultDuration: cfg.FaultDurationMs,
	}
	errs := make([]error, len(cfg.TestCases))
	checkpointable := make([]bool, len(cfg.TestCases))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.ResolvedWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				g.traces[i], g.preds[i], checkpointable[i], errs[i] = goldenRun(cfg, i, capture)
			}
		}()
	}
	for i := range cfg.TestCases {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if !capture {
		g.preds = nil
	}
	g.checkpointable = !slices.Contains(checkpointable, false)
	return g, nil
}

// goldenRun records the Golden Run of one test case, optionally
// streaming its instrumented reads into the pruning predictions, and
// reports whether its instance is checkpointable. The read hook only
// observes, so the recorded trace is bit-identical with and without
// it.
func goldenRun(cfg Config, i int, capture bool) (*trace.Trace, casePredictions, bool, error) {
	lg := newReadLog(cfg.Times, cfg.FaultDurationMs)
	var hook sim.ReadHook
	if capture {
		hook = lg.hook()
	}
	inst, err := cfg.NewInstance(cfg.TestCases[i], hook)
	if err != nil {
		return nil, casePredictions{}, false, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	_, checkpointable := inst.(target.Checkpointable)
	rec, err := trace.NewRecorderCap(inst.Bus(), int(cfg.HorizonMs))
	if err != nil {
		return nil, casePredictions{}, false, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	inst.Kernel().AddPostHook(rec.Hook())
	inst.Kernel().SetBudget(cfg.Budget)
	// A golden run is uninjected: a crash or hang here is a broken
	// target or an undersized budget, not a result.
	if crashed, pv := runGuarded(inst, cfg.HorizonMs); crashed {
		return nil, casePredictions{}, false, fmt.Errorf("campaign: golden run %d crashed: %v", i, pv)
	}
	if inst.Kernel().Exhausted() {
		return nil, casePredictions{}, false, fmt.Errorf("campaign: golden run %d exceeded the run budget (%d steps used) — raise Config.Budget or fix the target", i, inst.Kernel().BudgetUsed())
	}
	return rec.Trace(), lg.predictions(), checkpointable, nil
}

// Digests hashes each golden trace's canonical encoding
// (Trace.WriteTo) with SHA-256, in test-case order. The digests pin
// the target's deterministic behaviour: internal/runner folds them
// into the config digest, so a process simulating a different target
// cannot extend another's journal.
func (g *Golden) Digests() ([]string, error) {
	digests := make([]string, len(g.traces))
	for i, tr := range g.traces {
		h := sha256.New()
		if _, err := tr.WriteTo(h); err != nil {
			return nil, fmt.Errorf("campaign: hashing golden run %d: %w", i, err)
		}
		digests[i] = hex.EncodeToString(h.Sum(nil))
	}
	return digests, nil
}

// check validates cfg and rejects one this recording does not
// describe: lookups by case index, instant or horizon would otherwise
// index out of range or silently read "unfired".
func (g *Golden) check(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	switch {
	case !slices.Equal(cfg.TestCases, g.cases):
		return invalidf("campaign: golden runs were recorded for other test cases")
	case !slices.Equal(cfg.Times, g.times):
		return invalidf("campaign: golden runs were recorded for other injection times")
	case cfg.HorizonMs != g.horizon:
		return invalidf("campaign: golden runs were recorded over a %d ms horizon, not %d ms", g.horizon, cfg.HorizonMs)
	case cfg.FaultDurationMs != g.faultDuration:
		return invalidf("campaign: golden runs were recorded for a %d ms fault duration, not %d ms", g.faultDuration, cfg.FaultDurationMs)
	case g.preds == nil && (cfg.pruningEnabled() || cfg.adaptiveEnabled()):
		return invalidf("campaign: golden runs were recorded without the firing predictions this campaign needs")
	}
	return nil
}

// siblingTable returns the sibling table a probing Run of cfg shares:
// the recording's, built by the first Run that asks, when cfg is in
// its scope; otherwise a private one, so a suffix recorded under other
// tolerance bands, another step budget or another target is never
// spliced.
func (g *Golden) siblingTable(cfg Config) *trajectories {
	scope := siblingScope(cfg)
	g.siblingsMu.Lock()
	defer g.siblingsMu.Unlock()
	if g.siblings == nil {
		g.siblings = newTrajectories(scope, defaultTrajectoryBound)
	}
	if reflect.DeepEqual(g.siblings.scope, scope) {
		return g.siblings
	}
	return newTrajectories(scope, defaultTrajectoryBound)
}
