package campaign

import (
	"math"
	"strings"
	"sync"
	"testing"

	"propane/internal/arrestor"
	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/trace"
)

// tinyConfig is the smallest campaign that still exercises every
// module input: 2 bits × 2 instants × 2 test cases = 8 injections per
// input signal, 104 runs.
func tinyConfig() Config {
	cases, err := physics.Grid(1, 2, 11000, 11000, 50, 70)
	if err != nil {
		panic(err)
	}
	return Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{1500, 3500},
		Bits:           []uint{2, 14},
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

// tinyResult runs the tiny campaign once and caches it for all tests.
var (
	tinyOnce sync.Once
	tinyRes  *Result
	tinyErr  error
)

func tinyRun(t *testing.T) *Result {
	t.Helper()
	tinyOnce.Do(func() {
		tinyRes, tinyErr = Run(tinyConfig())
	})
	if tinyErr != nil {
		t.Fatalf("Run: %v", tinyErr)
	}
	return tinyRes
}

func TestRunCounts(t *testing.T) {
	res := tinyRun(t)
	// 13 input ports × 2 bits × 2 times × 2 cases.
	if got, want := res.Runs, 13*2*2*2; got != want {
		t.Errorf("Runs = %d, want %d", got, want)
	}
	if res.Unfired != 0 {
		t.Errorf("Unfired = %d, want 0 (every module reads every input each period)", res.Unfired)
	}
	if got := len(res.Pairs); got != 25 {
		t.Errorf("pairs = %d, want 25", got)
	}
	for _, ps := range res.Pairs {
		if ps.Injections != 8 {
			t.Errorf("pair %v injections = %d, want 8", ps.Pair, ps.Injections)
		}
		if ps.Estimate < 0 || ps.Estimate > 1 {
			t.Errorf("pair %v estimate %v out of range", ps.Pair, ps.Estimate)
		}
		if ps.CI.Low > ps.Estimate || ps.CI.High < ps.Estimate {
			t.Errorf("pair %v CI %v does not cover estimate %v", ps.Pair, ps.CI, ps.Estimate)
		}
	}
}

// TestPaperShapeProperties checks the structural results the paper
// reports for the target system (Section 8 and Tables 1–2), at tiny
// campaign scale.
func TestPaperShapeProperties(t *testing.T) {
	res := tinyRun(t)
	get := func(mod, in, out string) float64 {
		t.Helper()
		ps, err := res.PairBySignal(mod, in, out)
		if err != nil {
			t.Fatal(err)
		}
		return ps.Estimate
	}

	// CLOCK: the slot feedback is fully permeable, the ms counter is
	// independent of it (Table 2: P^CLOCK = 0.500, P̄ = 1.000).
	if got := get(arrestor.ModClock, arrestor.SigMsSlotNbr, arrestor.SigMsSlotNbr); got != 1 {
		t.Errorf("ms_slot_nbr->ms_slot_nbr = %v, want 1.0", got)
	}
	if got := get(arrestor.ModClock, arrestor.SigMsSlotNbr, arrestor.SigMscnt); got != 0 {
		t.Errorf("ms_slot_nbr->mscnt = %v, want 0.0", got)
	}

	// OB2: every permeability into stopped is zero.
	for _, in := range []string{arrestor.SigPACNT, arrestor.SigTIC1, arrestor.SigTCNT} {
		if got := get(arrestor.ModDistS, in, arrestor.SigStopped); got != 0 {
			t.Errorf("%s->stopped = %v, want 0.0 (OB2)", in, got)
		}
	}

	// The pulse count is fully driven by PACNT and independent of the
	// timer registers' direct data flow.
	if got := get(arrestor.ModDistS, arrestor.SigPACNT, arrestor.SigPulscnt); got != 1 {
		t.Errorf("PACNT->pulscnt = %v, want 1.0", got)
	}

	// The checkpoint feedback loop in CALC is highly permeable.
	if got := get(arrestor.ModCalc, arrestor.SigI, arrestor.SigI); got < 0.5 {
		t.Errorf("i->i = %v, want >= 0.5", got)
	}

	// The regulator chain is highly permeable (paper: 0.884/0.920/0.860).
	if got := get(arrestor.ModVReg, arrestor.SigSetValue, arrestor.SigOutValue); got < 0.7 {
		t.Errorf("SetValue->OutValue = %v, want >= 0.7", got)
	}
	if got := get(arrestor.ModVReg, arrestor.SigInValue, arrestor.SigOutValue); got < 0.7 {
		t.Errorf("InValue->OutValue = %v, want >= 0.7", got)
	}
	if got := get(arrestor.ModPresA, arrestor.SigOutValue, arrestor.SigTOC2); got < 0.5 {
		t.Errorf("OutValue->TOC2 = %v, want >= 0.5", got)
	}

	// PRES_S is the least permeable module (paper: 0.000; our median
	// filter leaves a small residue during pressure ramps).
	presS := get(arrestor.ModPresS, arrestor.SigADC, arrestor.SigInValue)
	if presS > 0.5 {
		t.Errorf("ADC->InValue = %v, want < 0.5 (filtered sensor)", presS)
	}
}

func TestMatrixMatchesPairStats(t *testing.T) {
	res := tinyRun(t)
	for _, ps := range res.Pairs {
		v, err := res.Matrix.Value(ps.Pair.Module, ps.Pair.In, ps.Pair.Out)
		if err != nil {
			t.Fatalf("Matrix.Value(%v): %v", ps.Pair, err)
		}
		if v != ps.Estimate {
			t.Errorf("matrix %v = %v, pair stats say %v", ps.Pair, v, ps.Estimate)
		}
	}
}

// TestNonUniformPropagation: the paper's Section 2 disputes the
// uniform-propagation claim of [12]; our campaign must exhibit
// locations whose propagation fraction is strictly between 0 and 1.
func TestNonUniformPropagation(t *testing.T) {
	res := tinyRun(t)
	nonUniform := res.NonUniformLocations(0.05, 0.95)
	if len(nonUniform) == 0 {
		t.Error("no non-uniform locations found; uniform propagation would be corroborated")
	}
	for _, loc := range nonUniform {
		if loc.Fraction <= 0.05 || loc.Fraction >= 0.95 {
			t.Errorf("location %s/%s fraction %v outside requested band", loc.Module, loc.Signal, loc.Fraction)
		}
	}
}

func TestPairBySignalErrors(t *testing.T) {
	res := tinyRun(t)
	if _, err := res.PairBySignal("NOPE", "a", "b"); err == nil {
		t.Error("PairBySignal(NOPE) succeeded")
	}
}

func TestOnlyModuleFilter(t *testing.T) {
	cfg := tinyConfig()
	cfg.OnlyModule = arrestor.ModVReg
	cfg.Times = cfg.Times[:1]
	cfg.Bits = cfg.Bits[:1]
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	// V_REG has two inputs: 2 × 1 bit × 1 time × 2 cases = 4 runs.
	if got := res.Runs; got != 4 {
		t.Errorf("Runs = %d, want 4", got)
	}
	for _, ps := range res.Pairs {
		if ps.Pair.Module != arrestor.ModVReg && ps.Injections != 0 {
			t.Errorf("module %s received injections despite filter", ps.Pair.Module)
		}
	}
	cfg.OnlyModule = "NO_SUCH_MODULE"
	if _, err := Run(cfg); err == nil {
		t.Error("Run with unknown OnlyModule succeeded")
	}
}

func TestErrorModelCampaign(t *testing.T) {
	cfg := tinyConfig()
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{inject.Replace{Value: 0xFFFF}}
	cfg.OnlyModule = arrestor.ModVReg
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	ps, err := res.PairBySignal(arrestor.ModVReg, arrestor.SigSetValue, arrestor.SigOutValue)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Estimate == 0 {
		t.Error("replacing SetValue with 0xFFFF never propagated to OutValue")
	}
}

func TestConfigValidateCampaign(t *testing.T) {
	valid := tinyConfig()
	if err := valid.Validate(); err != nil {
		t.Fatalf("tiny config invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"no cases":        func(c *Config) { c.TestCases = nil },
		"no times":        func(c *Config) { c.Times = nil },
		"no errors":       func(c *Config) { c.Bits = nil; c.Models = nil },
		"zero horizon":    func(c *Config) { c.HorizonMs = 0 },
		"time >= horizon": func(c *Config) { c.Times = []sim.Millis{6000} },
		"negative time":   func(c *Config) { c.Times = []sim.Millis{-1} },
		"nan epsilon":     func(c *Config) { c.CIEpsilon = math.NaN() },
		"neg epsilon":     func(c *Config) { c.CIEpsilon = -1 },
		"neg window":      func(c *Config) { c.DirectWindowMs = -1 },
		"bad arrestor":    func(c *Config) { c.Arrestor.MaxSlew = 0 },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			c := tinyConfig()
			mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate() accepted invalid config")
			}
			if _, err := Run(c); err == nil {
				t.Error("Run() accepted invalid config")
			}
		})
	}
}

func TestPaperConfigShape(t *testing.T) {
	cfg := PaperConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("PaperConfig invalid: %v", err)
	}
	if len(cfg.TestCases) != 25 {
		t.Errorf("test cases = %d, want 25", len(cfg.TestCases))
	}
	if len(cfg.Times) != 10 || len(cfg.Bits) != 16 {
		t.Errorf("times/bits = %d/%d, want 10/16", len(cfg.Times), len(cfg.Bits))
	}
	// 16 bits × 10 instants × 25 cases = 4000 injections per input
	// signal, the paper's number.
	if n := len(cfg.Bits) * len(cfg.Times) * len(cfg.TestCases); n != 4000 {
		t.Errorf("injections per input = %d, want 4000", n)
	}
	if err := ReducedConfig().Validate(); err != nil {
		t.Errorf("ReducedConfig invalid: %v", err)
	}
}

// TestDeterministicCampaign: two identical campaigns produce identical
// estimates despite concurrent execution.
func TestDeterministicCampaign(t *testing.T) {
	cfg := tinyConfig()
	cfg.OnlyModule = arrestor.ModDistS
	cfg.Workers = 4
	run := func() map[string]float64 {
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string]float64)
		for _, ps := range res.Pairs {
			out[ps.Pair.String()] = ps.Estimate
		}
		return out
	}
	a, b := run(), run()
	for k, v := range a {
		if b[k] != v {
			t.Errorf("pair %s: %v vs %v across runs", k, v, b[k])
		}
	}
}

func TestLatencyPercentileAccessor(t *testing.T) {
	res := tinyRun(t)
	for i := range res.Pairs {
		ps := &res.Pairs[i]
		p50, ok := ps.LatencyPercentile(0.5)
		if ps.Errors == 0 {
			if ok {
				t.Errorf("%v: percentile available with zero errors", ps.Pair)
			}
			continue
		}
		if !ok {
			t.Errorf("%v: percentile unavailable with %d errors", ps.Pair, ps.Errors)
			continue
		}
		p95, _ := ps.LatencyPercentile(0.95)
		if p50 < 0 || p95 < p50 {
			t.Errorf("%v: percentiles inconsistent p50=%v p95=%v", ps.Pair, p50, p95)
		}
	}
}

// TestLatencyPercentileAllocs: finalise sorts each pair's latencies
// once, so asking for a percentile reads them in place.
func TestLatencyPercentileAllocs(t *testing.T) {
	res := tinyRun(t)
	var ps *PairStats
	for i := range res.Pairs {
		if res.Pairs[i].Errors > 1 {
			ps = &res.Pairs[i]
			break
		}
	}
	if ps == nil {
		t.Fatal("no pair counted two or more errors")
	}
	if n := testing.AllocsPerRun(100, func() {
		ps.LatencyPercentile(0.5)
		ps.LatencyPercentile(0.95)
	}); n != 0 {
		t.Errorf("LatencyPercentile allocates %v times per p50+p95, want 0", n)
	}
}

func TestProgressCallback(t *testing.T) {
	cfg := tinyConfig()
	cfg.OnlyModule = "PRES_A"
	var calls []int
	var total int
	cfg.Progress = func(done, tot int) {
		calls = append(calls, done)
		total = tot
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != res.Runs {
		t.Errorf("progress called %d times, want %d", len(calls), res.Runs)
	}
	if total != res.Runs {
		t.Errorf("progress total = %d, want %d", total, res.Runs)
	}
	for i, d := range calls {
		if d != i+1 {
			t.Errorf("progress call %d reported done=%d", i, d)
			break
		}
	}
}

func TestPersistentFaultCampaign(t *testing.T) {
	cfg := tinyConfig()
	cfg.OnlyModule = "PRES_S"
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{inject.Replace{Value: 0xFF00}}
	cfg.FaultDurationMs = 100
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := res.PairBySignal("PRES_S", "ADC", "InValue")
	if err != nil {
		t.Fatal(err)
	}
	if ps.Estimate < 0.9 {
		t.Errorf("persistent saturated ADC -> InValue = %v, want near 1", ps.Estimate)
	}
	bad := cfg
	bad.FaultDurationMs = -1
	if _, err := Run(bad); err == nil {
		t.Error("negative fault duration accepted")
	}
}

// TestReplayRejectsModuleOutsideTopology pins the replay errors that
// stand without a per-output first-deviation copy: a fired,
// non-quarantined record naming a module outside the topology fails to
// replay and to fold, and completing a run injected there fails too;
// quarantined and unfired records replay without the module.
func TestReplayRejectsModuleOutsideTopology(t *testing.T) {
	cfg := tinyConfig()
	sys := cfg.System()
	bad := inject.Injection{Module: "NOPE", Signal: arrestor.SigSetValue, At: 1500, Model: inject.BitFlip{Bit: 2}}
	fired := RunRecord{Injection: bad, Fired: true, FiredAt: 1500, FailureAt: -1, Outcome: OutcomeDeviation}
	if _, err := recordOutcome(sys, fired); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("replaying a fired record injected into NOPE: err %v, want one naming the module", err)
	}
	for _, rec := range []RunRecord{
		{Injection: bad, Fired: true, Outcome: OutcomeQuarantined, Attempts: 3},
		{Injection: bad, FailureAt: -1, Outcome: OutcomeOK},
	} {
		if _, err := recordOutcome(sys, rec); err != nil {
			t.Errorf("replaying a %s record (fired %v) injected into NOPE: %v", rec.Outcome, rec.Fired, err)
		}
	}
	out := runOutcome{injection: bad, fired: true, firedAt: 1500, failureAt: -1}
	if err := finishOutcome(sys, &out); err == nil {
		t.Error("finishing a run injected into NOPE succeeded")
	}
	g, err := RecordGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Fold(cfg, []RunRecord{fired}, nil); err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Errorf("folding a fired record injected into NOPE: err %v, want one naming the module", err)
	}
}

// TestReplayedFirstDeviation pins how a replayed record's output
// errors are read from its diffs: an output entry that does not
// deviate counts as no error, exactly like a missing one, and a
// deviating one counts with its first deviation's latency.
func TestReplayedFirstDeviation(t *testing.T) {
	cfg := tinyConfig()
	sys := cfg.System()
	inj := inject.Injection{Module: arrestor.ModVReg, Signal: arrestor.SigSetValue, At: 1500, Model: inject.BitFlip{Bit: 2}}
	for _, tc := range []struct {
		diff      trace.Diff
		errors    int
		latencyMs float64
	}{
		{trace.Diff{Signal: arrestor.SigOutValue, First: -1, Last: -1}, 0, 0},
		{trace.Diff{Signal: arrestor.SigOutValue, First: 1620, Last: 1700}, 0, 0},
		{trace.Diff{Signal: arrestor.SigOutValue, First: 1620, Last: 1700, Count: 9}, 1, 120},
	} {
		agg := newResult(sys, cfg.DirectWindowMs, int(cfg.HorizonMs))
		rec := RunRecord{
			Injection: inj, Fired: true, FiredAt: 1500, FailureAt: -1, Outcome: OutcomeDeviation,
			Diffs: trace.Diffs{tc.diff},
		}
		if err := agg.absorbRecord(sys, rec); err != nil {
			t.Fatal(err)
		}
		found := false
		for _, ps := range agg.Pairs {
			if ps.InputSignal != arrestor.SigSetValue || ps.OutputSignal != arrestor.SigOutValue {
				continue
			}
			found = true
			if ps.Injections != 1 || ps.Errors != tc.errors {
				t.Errorf("diff %+v: pair counts %d injections, %d errors; want 1, %d", tc.diff, ps.Injections, ps.Errors, tc.errors)
			}
			if tc.errors > 0 && (len(ps.latencies) != 1 || ps.latencies[0] != tc.latencyMs) {
				t.Errorf("diff %+v: latencies %v, want [%v]", tc.diff, ps.latencies, tc.latencyMs)
			}
		}
		if !found {
			t.Fatalf("no %s -> %s pair", arrestor.SigSetValue, arrestor.SigOutValue)
		}
	}
}

// TestReplayRejectsUnorderedDiffs proves a replayed record whose diffs
// are not in strictly ascending signal order is refused: the output
// lookups search the slice, so such a record would lose deviations.
func TestReplayRejectsUnorderedDiffs(t *testing.T) {
	cfg := tinyConfig()
	sys := cfg.System()
	inj := inject.Injection{Module: arrestor.ModVReg, Signal: arrestor.SigSetValue, At: 1500, Model: inject.BitFlip{Bit: 2}}
	out := trace.Diff{Signal: arrestor.SigOutValue, First: 1620, Last: 1700, Count: 9}
	set := trace.Diff{Signal: arrestor.SigSetValue, First: 1501, Last: 1700, Count: 50}
	for name, diffs := range map[string]trace.Diffs{
		"descending": {set, out},
		"duplicate":  {out, out},
	} {
		agg := newResult(sys, cfg.DirectWindowMs, int(cfg.HorizonMs))
		rec := RunRecord{Injection: inj, Fired: true, FiredAt: 1500, FailureAt: -1, Outcome: OutcomeDeviation, Diffs: diffs}
		if err := agg.absorbRecord(sys, rec); err == nil {
			t.Errorf("%s diffs %v replayed without error", name, diffs)
		}
	}
}
