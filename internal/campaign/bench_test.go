package campaign

import (
	"testing"

	"propane/internal/arrestor"
	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/sim"
)

// BenchmarkInjectionRun measures one paper injection run as the
// campaign executes it: restore the checkpoint at the injection
// instant, simulate to the 6,000 ms horizon under the trap and compare
// every tick against the golden trace. Pruning is off, so the run
// always reaches the horizon.
func BenchmarkInjectionRun(b *testing.B) {
	cfg := tinyConfig()
	g, err := RecordGolden(cfg)
	if err != nil {
		b.Fatal(err)
	}
	w := (&engine{cfg: cfg, sys: cfg.System(), g: g}).newWorker()
	inj := inject.Injection{Module: arrestor.ModCalc, Signal: arrestor.SigPulscnt, At: 1500, Model: inject.BitFlip{Bit: 14}}
	if _, err := w.injectionRun(0, inj); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := w.injectionRun(0, inj)
		if err != nil {
			b.Fatal(err)
		}
		if !out.fired {
			b.Fatal("trap did not fire")
		}
	}
}

// BenchmarkDivergedRun measures one paper injection on the middle
// test case whose error propagates to the horizon: restore the
// checkpoint at the injection instant, then simulate and compare every
// remaining tick. The setup proves, with the campaign's pruner and
// reconvergence probes in place, that the run is neither pruned nor
// converged, so it is one of the runs no equality can retire; the
// timed loop then executes it without the golden pass, the pruner or
// the probes, restoring into the one instance its worker keeps for the
// case, which leaves the per-tick cost of a diverged run in the steady
// state.
func BenchmarkDivergedRun(b *testing.B) {
	cfg := PaperConfig()
	mid := len(cfg.TestCases) / 2
	cfg.TestCases = cfg.TestCases[mid : mid+1]
	g, err := RecordGolden(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if !g.fastForward(cfg) {
		b.Fatal("paper campaign does not fast-forward from checkpoints")
	}
	inj := inject.Injection{Module: arrestor.ModVReg, Signal: arrestor.SigSetValue, At: 1000, Model: inject.BitFlip{Bit: 14}}
	probed := &engine{cfg: cfg, sys: cfg.System(), g: g, pr: newPruner(cfg, g.preds),
		siblings: newTrajectories(Config{}, defaultTrajectoryBound)}
	out, err := probed.newWorker().injectionRun(0, inj)
	if err != nil {
		b.Fatal(err)
	}
	if !out.fired || out.pruned != "" {
		b.Fatalf("%v: fired %v, pruned %q; want a fired run executed to the horizon", inj, out.fired, out.pruned)
	}
	w := (&engine{cfg: cfg, sys: cfg.System(), g: g}).newWorker()
	if _, err := w.injectionRun(0, inj); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.injectionRun(0, inj); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cfg.HorizonMs-inj.At), "ns/tick")
}

// benchCampaign is the small campaign behind the campaign-level
// benchmarks: 1 test case, 2 instants, 2 bits over all 13 inputs = 52
// simulation runs per iteration.
func benchCampaign() Config {
	cases, err := physics.Grid(1, 1, 14000, 14000, 60, 60)
	if err != nil {
		panic(err)
	}
	return Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{1500, 3500},
		Bits:           []uint{3, 12},
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

// BenchmarkSingleInjectionRun measures one complete injection run:
// instance construction, 6 s of simulated time and streaming GRC.
// Pruning is pinned off: a one-run campaign would pay the golden
// firing-prediction capture with nothing to amortize it over, and the
// point of this benchmark is the marginal cost of executing a run in
// full.
func BenchmarkSingleInjectionRun(b *testing.B) {
	cfg := benchCampaign()
	cfg.Bits = []uint{7}
	cfg.Times = []sim.Millis{2500}
	cfg.OnlyModule = arrestor.ModVReg
	cfg.executeAll = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSupervisedInjectionRun guards the supervision overhead on
// the happy path: the exact workload of BenchmarkSingleInjectionRun
// but with the watchdog armed and the quarantine policy installed.
// The budget accounting is one int64 increment per task step and the
// crash guard is a recover on an unexercised path, so the delta
// against the unsupervised baseline should be noise.
func BenchmarkSupervisedInjectionRun(b *testing.B) {
	cfg := benchCampaign()
	cfg.Bits = []uint{7}
	cfg.Times = []sim.Millis{2500}
	cfg.OnlyModule = arrestor.ModVReg
	cfg.executeAll = true
	cfg.Budget = sim.Budget{Steps: int64(cfg.HorizonMs)*64 + 1024}
	cfg.OnJobError = QuarantinePolicy(3, nil)
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crashes+res.Hangs+len(res.Quarantined) != 0 {
			b.Fatalf("benign campaign tripped supervision: %d crashes, %d hangs, %d quarantined",
				res.Crashes, res.Hangs, len(res.Quarantined))
		}
	}
}

// BenchmarkCampaignFullReplay pins the pre-checkpoint execution model
// as the baseline: every injection run replays the target from t=0,
// re-simulating the identical pre-injection prefix for all 16 bit
// positions of every (case, instant) pair.
func BenchmarkCampaignFullReplay(b *testing.B) {
	cfg := benchCampaign()
	cfg.replayAll = true
	cfg.executeAll = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignCheckpointed is the same campaign with checkpoint
// fast-forward on and pruning off: one extra uninjected pass per test
// case captures a snapshot at each checkpoint tick, and every run
// sharing a (case, instant) restores it instead of re-simulating the
// prefix. Compare against BenchmarkCampaignFullReplay.
func BenchmarkCampaignCheckpointed(b *testing.B) {
	cfg := benchCampaign()
	cfg.executeAll = true
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignPruned is the campaign as configured: equivalence
// pruning stacked on the checkpointed execution model. Unfired traps
// resolve from the golden firing predictions without simulating,
// no-op corruptions short-circuit at classification time, and
// executing runs exit early once their state joins the golden
// trajectory or a sibling run's.
// Compare against the two benchmarks above for the isolated
// contribution of each layer.
func BenchmarkCampaignPruned(b *testing.B) {
	cfg := benchCampaign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Pruning.Total() == 0 {
			b.Fatal("pruned campaign resolved nothing without execution")
		}
	}
}

// BenchmarkPaperCampaignOneCase is the paper's full matrix on one test
// case — 13 inputs × 16 bits × 10 instants = 2,080 runs — as
// configured: the per-run hot path of the paper campaign (checkpoint
// restore, simulation, stream comparison, reconvergence probes and
// sibling splices) at a size one iteration of which takes a fraction
// of a second.
func BenchmarkPaperCampaignOneCase(b *testing.B) {
	cfg := PaperConfig()
	mid := len(cfg.TestCases) / 2
	cfg.TestCases = cfg.TestCases[mid : mid+1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Runs != 2080 {
			b.Fatalf("campaign settled %d runs, want 2080", res.Runs)
		}
	}
}

// TestInjectionRunAllocs pins the allocations of one executed paper
// injection run in the steady state, restoring into the instance its
// worker keeps for the case: the run builds no instance, trap or
// comparator and captures no state; what it allocates is its record's
// slice of the deviating signals' diffs. The outputs' first
// deviations are looked up in that slice, not copied.
func TestInjectionRunAllocs(t *testing.T) {
	cfg := tinyConfig()
	g, err := RecordGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := (&engine{cfg: cfg, sys: cfg.System(), g: g}).newWorker()
	inj := inject.Injection{Module: arrestor.ModVReg, Signal: arrestor.SigSetValue, At: 1500, Model: inject.BitFlip{Bit: 14}}
	var out runOutcome
	got := testing.AllocsPerRun(10, func() {
		if out, err = w.injectionRun(0, inj); err != nil {
			t.Fatal(err)
		}
	})
	if !out.fired || out.outcome != OutcomeDeviation {
		t.Fatalf("%v: fired %v, outcome %q; want a fired run that deviates", inj, out.fired, out.outcome)
	}
	// The record's slice of the nine deviating signals' diffs: one
	// allocation.
	if want := 1.0; got != want {
		t.Errorf("an executed injection run allocates %v times, want %v", got, want)
	}
}
