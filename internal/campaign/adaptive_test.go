package campaign

import (
	"fmt"
	"sync"
	"testing"

	"propane/internal/stats"
)

// adaptiveReduced returns the reduced campaign forced into adaptive
// mode. Its per-location population (48 jobs) sits below the pilot
// batch, so the scheduler exhausts every fireable job — which makes the
// result exactly comparable to the full matrix.
func adaptiveReduced() Config {
	cfg := ReducedConfig()
	cfg.Adaptive = AdaptiveForce
	return cfg
}

// TestAdaptiveExhaustiveMatchesFullMatrix: when the population is
// smaller than the pilot batch the adaptive campaign runs every
// fireable job, and because provably-unfired jobs contribute nothing
// to any estimate, every pair statistic must equal the full matrix's.
func TestAdaptiveExhaustiveMatchesFullMatrix(t *testing.T) {
	full, err := Run(ReducedConfig())
	if err != nil {
		t.Fatal(err)
	}
	adap, err := Run(adaptiveReduced())
	if err != nil {
		t.Fatal(err)
	}
	if adap.Adaptive == nil {
		t.Fatal("adaptive result carries no AdaptiveStats")
	}
	if len(adap.Pairs) != len(full.Pairs) {
		t.Fatalf("pair count mismatch: %d vs %d", len(adap.Pairs), len(full.Pairs))
	}
	for i := range full.Pairs {
		fp, ap := full.Pairs[i], adap.Pairs[i]
		if fp.Pair != ap.Pair {
			t.Fatalf("pair order mismatch at %d: %v vs %v", i, fp.Pair, ap.Pair)
		}
		if fp.Injections != ap.Injections || fp.Errors != ap.Errors {
			t.Errorf("%v: full %d/%d vs adaptive %d/%d", fp.Pair,
				fp.Errors, fp.Injections, ap.Errors, ap.Injections)
		}
		if fp.Estimate != ap.Estimate {
			t.Errorf("%v: estimate %v vs %v", fp.Pair, fp.Estimate, ap.Estimate)
		}
	}
	for i := range full.Locations {
		fl, al := full.Locations[i], adap.Locations[i]
		if fl.Injections != al.Injections || fl.Propagated != al.Propagated {
			t.Errorf("location %s@%s: full %d/%d vs adaptive %d/%d",
				fl.Signal, fl.Module, fl.Propagated, fl.Injections, al.Propagated, al.Injections)
		}
	}
	// The only difference the full matrix should show is the unfired
	// runs the adaptive population excluded up front.
	if got, want := adap.Runs+full.Unfired, full.Runs; got != want {
		t.Errorf("adaptive runs %d + full unfired %d = %d, want full runs %d",
			adap.Runs, full.Unfired, got, want)
	}
	if adap.Unfired != 0 {
		t.Errorf("adaptive campaign executed %d unfired jobs the read log should have excluded", adap.Unfired)
	}
}

// TestAdaptiveJobSetDeterministic: the executed job set is a pure
// function of (config, ε) — worker count and dispatch interleaving
// must not change it.
func TestAdaptiveJobSetDeterministic(t *testing.T) {
	jobSet := func(workers int) map[string]int {
		cfg := adaptiveReduced()
		cfg.Workers = workers
		set := make(map[string]int)
		var mu sync.Mutex
		cfg.Observer = func(rec RunRecord) {
			mu.Lock()
			set[fmt.Sprintf("%v#%d", rec.Injection, rec.CaseIndex)] = rec.Round
			mu.Unlock()
		}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return set
	}
	one := jobSet(1)
	eight := jobSet(8)
	if len(one) == 0 {
		t.Fatal("no jobs observed")
	}
	if len(one) != len(eight) {
		t.Fatalf("job set size differs: %d at workers=1 vs %d at workers=8", len(one), len(eight))
	}
	for k, round := range one {
		r8, ok := eight[k]
		if !ok {
			t.Fatalf("job %s executed at workers=1 but not workers=8", k)
		}
		if round != r8 {
			t.Errorf("job %s: round %d at workers=1 vs %d at workers=8", k, round, r8)
		}
	}
}

// TestAdaptiveResumeReplaysStoppingDecisions: splitting a campaign at
// an arbitrary record boundary and replaying the first part must
// execute exactly the remaining jobs and converge to the same result.
func TestAdaptiveResumeReplaysStoppingDecisions(t *testing.T) {
	var records []RunRecord
	cfg := adaptiveReduced()
	cfg.Observer = func(rec RunRecord) {
		rec.Attachment = nil
		records = append(records, rec)
	}
	cfg.Workers = 1
	base, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) < 4 {
		t.Fatalf("campaign too small to split: %d records", len(records))
	}
	cut := len(records) / 3
	resumed := adaptiveReduced()
	resumed.Replay = records[:cut]
	var fresh []RunRecord
	var mu sync.Mutex
	resumed.Observer = func(rec RunRecord) {
		mu.Lock()
		fresh = append(fresh, rec)
		mu.Unlock()
	}
	res, err := Run(resumed)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(fresh)+cut, len(records); got != want {
		t.Errorf("resume executed %d fresh jobs after %d replayed; want total %d", len(fresh), cut, want)
	}
	replayed := make(map[string]bool, cut)
	for _, rec := range records[:cut] {
		replayed[fmt.Sprintf("%v#%d", rec.Injection, rec.CaseIndex)] = true
	}
	for _, rec := range fresh {
		if replayed[fmt.Sprintf("%v#%d", rec.Injection, rec.CaseIndex)] {
			t.Errorf("resume re-executed replayed job %v case %d", rec.Injection, rec.CaseIndex)
		}
	}
	for i := range base.Pairs {
		bp, rp := base.Pairs[i], res.Pairs[i]
		if bp.Injections != rp.Injections || bp.Errors != rp.Errors {
			t.Errorf("%v: base %d/%d vs resumed %d/%d", bp.Pair,
				bp.Errors, bp.Injections, rp.Errors, rp.Injections)
		}
	}
}

// TestAdaptiveStopsEarlyAndPinsEstimates: with a population well above
// the pilot batch, the stopping rule must close locations before
// exhausting them, and every reported pair estimate must carry a
// conservative interval of half-width ≤ ε at the corrected level.
func TestAdaptiveStopsEarlyAndPinsEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-thousand-run campaign")
	}
	cfg := PaperConfig()
	cfg.Adaptive = AdaptiveForce
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Adaptive
	if st == nil {
		t.Fatal("no adaptive stats")
	}
	if st.StoppedEarly == 0 {
		t.Error("no location stopped early on the paper campaign")
	}
	if st.Scheduled >= st.Population {
		t.Errorf("scheduled %d of %d fireable jobs: nothing saved", st.Scheduled, st.Population)
	}
	if st.Scheduled*3 > st.FullRuns {
		t.Errorf("scheduled %d runs; need < 1/3 of the %d-run full matrix for the 3x speedup", st.Scheduled, st.FullRuns)
	}
	for _, ps := range res.Pairs {
		if ps.Injections == 0 {
			continue
		}
		iv, err := stats.StoppingInterval(ps.Errors, ps.Injections, st.Alpha)
		if err != nil {
			t.Fatal(err)
		}
		if hw := iv.HalfWidth(); hw > st.Epsilon+1e-9 {
			t.Errorf("%v: CI half-width %.4f > epsilon %.3f (%d/%d)",
				ps.Pair, hw, st.Epsilon, ps.Errors, ps.Injections)
		}
	}
	// The conclusions must survive sampling: predicted module ordering
	// is cross-validated elsewhere; here the measured ordering from the
	// sampled campaign must match the full matrix's.
	full, err := Run(PaperConfig())
	if err != nil {
		t.Fatal(err)
	}
	tau, err := moduleOrderingTau(full, res)
	if err != nil {
		t.Fatal(err)
	}
	if tau < 0.95 {
		t.Errorf("module ordering Kendall tau %.3f < 0.95", tau)
	}
}

// moduleOrderingTau compares two results' relative-permeability module
// orderings (Kendall tau, -1..1).
func moduleOrderingTau(a, b *Result) (float64, error) {
	am, bm := make(map[string]float64), make(map[string]float64)
	for _, name := range a.Topology.ModuleNames() {
		ra, err := a.Matrix.RelativePermeability(name)
		if err != nil {
			return 0, err
		}
		rb, err := b.Matrix.RelativePermeability(name)
		if err != nil {
			return 0, err
		}
		am[name], bm[name] = ra, rb
	}
	return stats.KendallTau(am, bm)
}

// TestAdaptiveAutoThreshold: Auto declines small campaigns and
// instrumented ones, and engages on the paper-scale grid.
func TestAdaptiveAutoThreshold(t *testing.T) {
	small := ReducedConfig()
	small.Adaptive = AdaptiveAuto
	if small.AdaptiveEnabled() {
		t.Error("Auto engaged on the reduced campaign (48 jobs per location)")
	}
	big := PaperConfig()
	big.Adaptive = AdaptiveAuto
	if !big.AdaptiveEnabled() {
		t.Error("Auto declined the paper campaign (4000 jobs per location)")
	}
	big.Instrument = func(inst Instance, caseIdx int) (any, error) { return nil, nil }
	if big.AdaptiveEnabled() {
		t.Error("Auto engaged despite an Instrument hook")
	}
	off := PaperConfig()
	if off.AdaptiveEnabled() {
		t.Error("Off engaged")
	}
	force := ReducedConfig()
	force.Adaptive = AdaptiveForce
	if !force.AdaptiveEnabled() {
		t.Error("Force declined")
	}
}

// TestAdaptiveValidate: mode and epsilon validation.
func TestAdaptiveValidate(t *testing.T) {
	cfg := ReducedConfig()
	cfg.Adaptive = AdaptiveMode(42)
	if err := cfg.Validate(); err == nil {
		t.Error("unknown adaptive mode validated")
	}
	cfg = ReducedConfig()
	cfg.CIEpsilon = 0.5
	if err := cfg.Validate(); err == nil {
		t.Error("epsilon 0.5 validated")
	}
	cfg = ReducedConfig()
	cfg.CIEpsilon = -0.01
	if err := cfg.Validate(); err == nil {
		t.Error("negative epsilon validated")
	}
	cfg = ReducedConfig()
	cfg.CIEpsilon = 0.02
	if err := cfg.Validate(); err != nil {
		t.Errorf("epsilon 0.02 rejected: %v", err)
	}
	if cfg.ResolvedCIEpsilon() != 0.02 {
		t.Error("explicit epsilon not resolved")
	}
	if (Config{}).ResolvedCIEpsilon() != defaultCIEpsilon {
		t.Error("default epsilon not resolved")
	}
}

// TestAdaptivePlanner: the external-driver API claims exactly the
// schedule the in-process run executes, proves completion from the
// record stream, and rejects foreign records.
func TestAdaptivePlanner(t *testing.T) {
	cfg := adaptiveReduced()
	var records []RunRecord
	cfg.Observer = func(rec RunRecord) {
		rec.Attachment = nil
		records = append(records, rec)
	}
	cfg.Workers = 1
	g, err := RecordGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Run(cfg); err != nil {
		t.Fatal(err)
	}

	// The planner replays the campaign's schedule from the same golden
	// recording.
	p, err := g.Planner(adaptiveReduced())
	if err != nil {
		t.Fatal(err)
	}
	if p.Done() {
		t.Fatal("planner done before any sample settled")
	}
	if got, want := p.Population(), len(records); got != want {
		t.Fatalf("planner population %d, campaign executed %d", got, want)
	}
	claimed := p.Claim(1 << 20)
	if len(claimed) != len(records) {
		t.Fatalf("claimed %d jobs, campaign executed %d", len(claimed), len(records))
	}
	if p.Outstanding() != len(claimed) {
		t.Fatalf("outstanding %d, want %d", p.Outstanding(), len(claimed))
	}
	for _, rec := range records {
		if err := p.Observe(rec); err != nil {
			t.Fatal(err)
		}
	}
	if !p.Done() {
		t.Error("planner not done after observing the full journal")
	}
	if p.Outstanding() != 0 {
		t.Errorf("outstanding %d after full journal", p.Outstanding())
	}
	if p.Settled() != len(records) {
		t.Errorf("settled %d, want %d", p.Settled(), len(records))
	}
	// Strictness: duplicates and out-of-schedule records are errors.
	if err := p.Observe(records[0]); err == nil {
		t.Error("duplicate record accepted")
	}
	foreign := records[0]
	foreign.Injection.At += 1
	if err := p.Observe(foreign); err == nil {
		t.Error("out-of-schedule record accepted")
	}

	// Planner refuses non-adaptive configurations.
	if _, err := g.Planner(ReducedConfig()); err == nil {
		t.Error("planner built for a non-adaptive config")
	}
}
