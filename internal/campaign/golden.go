package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sync"

	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/trace"
)

// Golden is a campaign's recorded Golden Runs (Section 6): one trace
// per test case and, when the campaign prunes or samples adaptively,
// the firing predictions its instrumented reads streamed out. The
// recording depends only on the target, the test cases, the injection
// instants, the horizon and the fault duration, so one RecordGolden
// serves every Run, Planner and Digests call of a campaign. A Golden
// is read-only once recorded.
type Golden struct {
	traces []*trace.Trace
	preds  []casePredictions // nil unless captured

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
		cases:         slices.Clone(cfg.TestCases),
		times:         slices.Clone(cfg.Times),
		horizon:       cfg.HorizonMs,
		faultDuration: cfg.FaultDurationMs,
	}
	errs := make([]error, len(cfg.TestCases))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < cfg.ResolvedWorkers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				g.traces[i], g.preds[i], errs[i] = goldenRun(cfg, i, capture)
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
	return g, nil
}

// goldenRun records the Golden Run of one test case, optionally
// streaming its instrumented reads into the pruning predictions. The
// read hook only observes, so the recorded trace is bit-identical
// with and without it.
func goldenRun(cfg Config, i int, capture bool) (*trace.Trace, casePredictions, error) {
	lg := newReadLog(cfg.Times, cfg.FaultDurationMs)
	var hook sim.ReadHook
	if capture {
		hook = lg.hook()
	}
	inst, err := cfg.NewInstance(cfg.TestCases[i], hook)
	if err != nil {
		return nil, casePredictions{}, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	rec, err := trace.NewRecorderCap(inst.Bus(), int(cfg.HorizonMs))
	if err != nil {
		return nil, casePredictions{}, fmt.Errorf("campaign: golden run %d: %w", i, err)
	}
	inst.Kernel().AddPostHook(rec.Hook())
	inst.Kernel().SetBudget(cfg.Budget)
	// A golden run is uninjected: a crash or hang here is a broken
	// target or an undersized budget, not a result.
	if crashed, pv := runGuarded(inst, cfg.HorizonMs); crashed {
		return nil, casePredictions{}, fmt.Errorf("campaign: golden run %d crashed: %v", i, pv)
	}
	if inst.Kernel().Exhausted() {
		return nil, casePredictions{}, fmt.Errorf("campaign: golden run %d exceeded the run budget (%d steps used) — raise Config.Budget or fix the target", i, inst.Kernel().BudgetUsed())
	}
	return rec.Trace(), lg.predictions(), nil
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
