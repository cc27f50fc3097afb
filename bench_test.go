// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus ablation and micro benchmarks. Each
// table/figure benchmark regenerates the full artefact per iteration;
// run with -v (or see cmd/propane and EXPERIMENTS.md) for the rendered
// rows. The campaign-backed benchmarks use a small injection grid per
// iteration so `go test -bench=.` completes quickly; the full paper
// campaign is exercised by BenchmarkPaperScaleCampaign, which is
// skipped unless -timeout allows (it runs ~52 000 simulations) and is
// guarded behind the PROPANE_PAPER_BENCH environment variable.
package propane_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"propane/internal/arrestor"
	"propane/internal/autobrake"
	"propane/internal/campaign"
	"propane/internal/core"
	"propane/internal/distrib"
	"propane/internal/edm"
	"propane/internal/hostile"
	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/report"
	"propane/internal/runner"
	"propane/internal/service"
	"propane/internal/sim"
	"propane/internal/store"
	"propane/internal/synth"
	"propane/internal/target"
	"propane/internal/trace"
)

// benchCampaign is the small campaign used by campaign-backed
// benchmarks: 1 test case, 2 instants, 2 bits over all 13 inputs = 52
// simulation runs per iteration.
func benchCampaign() campaign.Config {
	cases, err := physics.Grid(1, 1, 14000, 14000, 60, 60)
	if err != nil {
		panic(err)
	}
	return campaign.Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{1500, 3500},
		Bits:           []uint{3, 12},
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

var (
	benchOnce sync.Once
	benchRes  *campaign.Result
)

// benchResult provides a measured matrix for the pure-analysis
// benchmarks without re-running the campaign per iteration.
func benchResult(b *testing.B) *campaign.Result {
	b.Helper()
	benchOnce.Do(func() {
		res, err := campaign.Run(benchCampaign())
		if err != nil {
			panic(err)
		}
		benchRes = res
	})
	return benchRes
}

// BenchmarkTable1PairPermeabilities regenerates Table 1: a full
// injection campaign plus the rendered per-pair permeability table.
func BenchmarkTable1PairPermeabilities(b *testing.B) {
	var table string
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(benchCampaign())
		if err != nil {
			b.Fatal(err)
		}
		table = report.Table1(res)
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// BenchmarkTable2ModuleMeasures regenerates Table 2 from the measured
// matrix: Eqs. 2-5 for every module.
func BenchmarkTable2ModuleMeasures(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var table string
	for i := 0; i < b.N; i++ {
		t2, err := report.Table2(res.Matrix)
		if err != nil {
			b.Fatal(err)
		}
		table = t2
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// BenchmarkTable3SignalExposures regenerates Table 3: signal error
// exposure (Eq. 6) over the backtrack forest.
func BenchmarkTable3SignalExposures(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var table string
	for i := 0; i < b.N; i++ {
		t3, err := report.Table3(res.Matrix)
		if err != nil {
			b.Fatal(err)
		}
		table = t3
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// BenchmarkTable4PropagationPaths regenerates Table 4: the ranked
// non-zero propagation paths of the TOC2 backtrack tree.
func BenchmarkTable4PropagationPaths(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var table string
	for i := 0; i < b.N; i++ {
		t4, err := report.Table4(res.Matrix, arrestor.SigTOC2, true)
		if err != nil {
			b.Fatal(err)
		}
		table = t4
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// exampleBenchMatrix builds the Fig. 2 example matrix used by the
// figure benchmarks of the analytic example.
func exampleBenchMatrix() *core.Matrix {
	m := core.NewMatrix(model.PaperExampleSystem())
	vals := []struct {
		mod     string
		in, out int
		v       float64
	}{
		{"A", 1, 1, 0.8},
		{"B", 1, 1, 0.5}, {"B", 1, 2, 0.6}, {"B", 2, 1, 0.9}, {"B", 2, 2, 0.3},
		{"C", 1, 1, 0.7}, {"D", 1, 1, 0.4},
		{"E", 1, 1, 0.9}, {"E", 2, 1, 0.5}, {"E", 3, 1, 0.2},
	}
	for _, a := range vals {
		if err := m.Set(a.mod, a.in, a.out, a.v); err != nil {
			panic(err)
		}
	}
	return m
}

// BenchmarkFig4BacktrackTreeExample regenerates Fig. 4: the backtrack
// tree of the example system's output, rendered as DOT.
func BenchmarkFig4BacktrackTreeExample(b *testing.B) {
	m := exampleBenchMatrix()
	b.ResetTimer()
	var dot string
	for i := 0; i < b.N; i++ {
		tree, err := core.BacktrackTree(m, "sysout")
		if err != nil {
			b.Fatal(err)
		}
		dot = report.TreeDOT(tree, "fig4")
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkFig5TraceTreeExample regenerates Fig. 5: the trace tree of
// the example system's input extA.
func BenchmarkFig5TraceTreeExample(b *testing.B) {
	m := exampleBenchMatrix()
	b.ResetTimer()
	var dot string
	for i := 0; i < b.N; i++ {
		tree, err := core.TraceTree(m, "extA")
		if err != nil {
			b.Fatal(err)
		}
		dot = report.TreeDOT(tree, "fig5")
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkFig8TopologyGraph regenerates Fig. 8: the target system's
// module/signal topology.
func BenchmarkFig8TopologyGraph(b *testing.B) {
	var dot string
	for i := 0; i < b.N; i++ {
		dot = report.TopologyDOT(arrestor.Topology())
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkFig9PermeabilityGraph regenerates Fig. 9: the permeability
// graph of the target system with measured arc weights.
func BenchmarkFig9PermeabilityGraph(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var dot string
	for i := 0; i < b.N; i++ {
		g, err := core.NewGraph(res.Matrix)
		if err != nil {
			b.Fatal(err)
		}
		dot = report.PermeabilityGraphDOT(g)
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkFig10BacktrackTreeTOC2 regenerates Fig. 10: the 22-path
// backtrack tree of the system output TOC2.
func BenchmarkFig10BacktrackTreeTOC2(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var dot string
	for i := 0; i < b.N; i++ {
		tree, err := core.BacktrackTree(res.Matrix, arrestor.SigTOC2)
		if err != nil {
			b.Fatal(err)
		}
		if tree.Root.CountLeaves() != 22 {
			b.Fatalf("TOC2 tree has %d paths, want 22", tree.Root.CountLeaves())
		}
		dot = report.TreeDOT(tree, "fig10")
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkFig11TraceTreeADC regenerates Fig. 11: the trace tree of
// system input ADC.
func BenchmarkFig11TraceTreeADC(b *testing.B) {
	benchTraceTree(b, arrestor.SigADC)
}

// BenchmarkFig12TraceTreePACNT regenerates Fig. 12: the trace tree of
// system input PACNT (the trees for TIC1 and TCNT are isomorphic, as
// the paper notes).
func BenchmarkFig12TraceTreePACNT(b *testing.B) {
	benchTraceTree(b, arrestor.SigPACNT)
}

func benchTraceTree(b *testing.B, input string) {
	b.Helper()
	res := benchResult(b)
	b.ResetTimer()
	var dot string
	for i := 0; i < b.N; i++ {
		tree, err := core.TraceTree(res.Matrix, input)
		if err != nil {
			b.Fatal(err)
		}
		dot = report.TreeDOT(tree, "trace-"+input)
	}
	b.StopTimer()
	b.Log("\n" + dot)
}

// BenchmarkAblationErrorModel regenerates the Section 6 error-model
// sensitivity study: one campaign under an alternative error model.
func BenchmarkAblationErrorModel(b *testing.B) {
	cfg := benchCampaign()
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{
		inject.StuckAt{Bit: 3, One: true},
		inject.Offset{Delta: 512},
	}
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWorkloadSensitivity regenerates the future-work
// workload study: one campaign on a shifted workload grid.
func BenchmarkAblationWorkloadSensitivity(b *testing.B) {
	cfg := benchCampaign()
	cases, err := physics.Grid(1, 1, 19000, 19000, 75, 75)
	if err != nil {
		b.Fatal(err)
	}
	cfg.TestCases = cases
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUniformPropagation regenerates the Section 2 check: the
// per-location propagation fractions.
func BenchmarkUniformPropagation(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var table string
	for i := 0; i < b.N; i++ {
		table = report.UniformPropagationTable(res)
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// BenchmarkOB3PlacementEvaluation regenerates the OB3 study: campaign
// plus EDM coverage evaluation for three placements.
func BenchmarkOB3PlacementEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := edm.Evaluate(benchCampaign(), []edm.Placement{
			{Signal: arrestor.SigInValue, Efficiency: 1.0},
			{Signal: arrestor.SigSetValue, Efficiency: 0.7},
			{Signal: arrestor.SigOutValue, Efficiency: 0.7},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationTick measures the raw simulation throughput: one
// full kernel tick of the arrestment system (glue, physics, six
// modules).
func BenchmarkSimulationTick(b *testing.B) {
	inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), physics.TestCase{MassKg: 14000, VelocityMS: 60}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst.Kernel().Tick()
	}
}

// BenchmarkBacktrackForest measures the pure tree-construction cost on
// the target topology.
func BenchmarkBacktrackForest(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.BacktrackForest(res.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSignalExposureComputation measures Eq. 6 over the full
// backtrack forest.
func BenchmarkSignalExposureComputation(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SignalExposures(res.Matrix); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDualNodeCampaign regenerates the distributed (master/slave)
// extension study: a campaign over the 31-pair two-node topology.
func BenchmarkDualNodeCampaign(b *testing.B) {
	cfg := benchCampaign()
	cfg.Dual = true
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) != 31 {
			b.Fatalf("dual pairs = %d, want 31", len(res.Pairs))
		}
	}
}

// BenchmarkSensitivityAnalysis measures the hardening-priority
// computation over the target topology.
func BenchmarkSensitivityAnalysis(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PathSensitivities(res.Matrix, arrestor.SigTOC2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollapseHierarchy measures the Section 3 hierarchy
// operation: collapsing the sensor chain into one composite module.
func BenchmarkCollapseHierarchy(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Collapse(res.Matrix, []string{arrestor.ModVReg, arrestor.ModPresA}, "ACT"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutobrakeCampaign regenerates the second-target study: a
// campaign over the wheel-slip brake controller (14 pairs).
func BenchmarkAutobrakeCampaign(b *testing.B) {
	cases, err := autobrake.Grid(1, 1)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.Config{
		Custom:         autobrake.Target(autobrake.DefaultConfig()),
		TestCases:      cases,
		Times:          []sim.Millis{800, 2000},
		Bits:           []uint{3, 12},
		HorizonMs:      3500,
		DirectWindowMs: 300,
	}
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Pairs) != 14 {
			b.Fatalf("autobrake pairs = %d, want 14", len(res.Pairs))
		}
	}
}

// BenchmarkCrossValidation regenerates the prediction-vs-measurement
// table: compositional end-to-end prediction against the campaign's
// direct propagation fractions.
func BenchmarkCrossValidation(b *testing.B) {
	res := benchResult(b)
	b.ResetTimer()
	var table string
	for i := 0; i < b.N; i++ {
		t, err := report.ValidationTable(res)
		if err != nil {
			b.Fatal(err)
		}
		table = t
	}
	b.StopTimer()
	b.Log("\n" + table)
}

// BenchmarkPaperScaleCampaign runs the paper's full campaign (52 000
// injection runs). Guarded behind PROPANE_PAPER_BENCH=1 because it
// takes on the order of a minute of CPU time per iteration.
func BenchmarkPaperScaleCampaign(b *testing.B) {
	if os.Getenv("PROPANE_PAPER_BENCH") == "" {
		b.Skip("set PROPANE_PAPER_BENCH=1 to run the full 52 000-run campaign")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(campaign.PaperConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCampaignAdaptive is the adaptive counterpart of
// BenchmarkPaperScaleCampaign: the same paper-scale instance under
// sequential CI-driven sampling (ε = 0.05). The ns/op ratio between
// the two is the headline saving of the adaptive scheduler; the
// scheduled-runs metric records how many of the ~52 000 fixed-matrix
// runs the stopping rule actually asked for.
func BenchmarkCampaignAdaptive(b *testing.B) {
	if os.Getenv("PROPANE_PAPER_BENCH") == "" {
		b.Skip("set PROPANE_PAPER_BENCH=1 to run the adaptive paper-scale campaign")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := campaign.PaperConfig()
		cfg.Adaptive = campaign.AdaptiveForce
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Adaptive == nil {
			b.Fatal("adaptive campaign returned no AdaptiveStats")
		}
		b.ReportMetric(float64(res.Adaptive.Scheduled), "scheduled-runs")
	}
}

// BenchmarkAblationFaultDuration regenerates the transient-vs-
// persistent study: one campaign with 200-ms persistent faults.
func BenchmarkAblationFaultDuration(b *testing.B) {
	cfg := benchCampaign()
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{inject.Replace{Value: 0xFF00}}
	cfg.FaultDurationMs = 200
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationComparisonTolerance regenerates the tolerant-GRC
// study: one campaign with a 512-unit tolerance band on every signal.
func BenchmarkAblationComparisonTolerance(b *testing.B) {
	cfg := benchCampaign()
	cfg.Tolerances = trace.Tolerances{}
	for _, sig := range arrestor.Topology().Signals() {
		cfg.Tolerances[sig] = 512
	}
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryStudy regenerates the OB5 recovery experiment: one
// baseline campaign plus one campaign with an idealised ERM on
// OutValue.
func BenchmarkRecoveryStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := edm.RecoveryStudy(benchCampaign(), []string{arrestor.SigOutValue})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != 1 {
			b.Fatal("unexpected recovery result count")
		}
	}
}

// BenchmarkEDMOptimize regenerates the [18] combination-selection
// study.
func BenchmarkEDMOptimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := edm.Optimize(benchCampaign(), []edm.Candidate{
			{Signal: arrestor.SigSetValue, Efficiency: 0.7, Cost: 1},
			{Signal: arrestor.SigOutValue, Efficiency: 0.7, Cost: 1},
			{Signal: arrestor.SigInValue, Efficiency: 1.0, Cost: 1},
		}, 2)
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostileCampaign measures the supervised execution layer
// against the adversarial target: 40 runs per iteration of which 4
// crash (target panic → recover → classify) and 4 trip the watchdog
// (budget exhaustion → hang). This is the cost of supervising targets
// that do not politely return.
func BenchmarkHostileCampaign(b *testing.B) {
	cases, err := physics.Grid(1, 2, 12000, 12000, 50, 70)
	if err != nil {
		b.Fatal(err)
	}
	cfg := campaign.Config{
		Custom:    hostile.Target(),
		TestCases: cases,
		Times:     []sim.Millis{50, 150},
		Bits:      []uint{3, 15},
		HorizonMs: 300,
		Budget:    hostile.RunBudget(300),
	}
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Crashes == 0 || res.Hangs == 0 {
			b.Fatalf("hostile campaign saw %d crashes / %d hangs, want both non-zero", res.Crashes, res.Hangs)
		}
	}
}

// BenchmarkCheckpointCaptureRestore measures the snapshot primitive
// itself: one Capture plus one Restore of a mid-flight arrestment
// instance. This bounds the per-run cost the fast-forward path pays
// instead of re-simulating the prefix.
func BenchmarkCheckpointCaptureRestore(b *testing.B) {
	inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), physics.TestCase{MassKg: 14000, VelocityMS: 60}, nil)
	if err != nil {
		b.Fatal(err)
	}
	for inst.Kernel().Now() < 2500 {
		inst.Kernel().Tick()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := inst.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if err := inst.Restore(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// benchDistributed runs one complete distributed campaign through the
// loopback harness: coordinator, ephemeral HTTP listener, `workers`
// in-process worker agents, assembly. The measured time is the full
// wall clock from planning to assembled matrix, so it is directly
// comparable to a single-node campaign.Run of the same instance.
//
// The unit count is fixed at 4 for every fleet size so the workload is
// identical across the workers=N variants and the numbers measure pure
// scale-out: adding workers to the same campaign must never make it
// slower. (Earlier revisions used 2*workers units, which doubled the
// per-unit fixed work — golden passes, scratch setup — along with the
// fleet and muddied exactly that comparison.)
func benchDistributed(b *testing.B, instance string, tier runner.Tier, workers int) {
	benchDistributedMode(b, instance, tier, workers, campaign.AdaptiveOff)
}

// benchDistributedMode is benchDistributed with an explicit adaptive
// mode, shared by the fixed-matrix and sequential-sampling variants.
func benchDistributedMode(b *testing.B, instance string, tier runner.Tier, workers int, mode campaign.AdaptiveMode) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir, err := os.MkdirTemp("", "propane-distrib-bench-*")
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		_, err = distrib.Loopback(distrib.Config{
			Instance: instance,
			Tier:     tier,
			Dir:      dir,
			Units:    4,
			Adaptive: mode,
		}, workers, distrib.WorkerOptions{Workers: 1})
		b.StopTimer()
		rmErr := os.RemoveAll(dir)
		b.StartTimer()
		if err != nil {
			b.Fatal(err)
		}
		if rmErr != nil {
			b.Fatal(rmErr)
		}
	}
}

// BenchmarkDistributedLoopbackQuick measures the distributed path on
// the quick-tier reduced campaign for 1-, 2- and 4-worker loopback
// fleets. Against BenchmarkTable1PairPermeabilities-style single-node
// numbers this exposes the fixed coordination overhead (per-unit
// golden runs, HTTP round-trips, journal assembly).
func BenchmarkDistributedLoopbackQuick(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDistributed(b, "reduced", runner.TierQuick, workers)
		})
	}
}

// TestDistributedScalingSmoke is the CI guard on distributed
// scale-out: the quick-tier loopback campaign at 1, 2 and 4 workers,
// best of three runs each. The fleet sizes are interleaved within
// each rep so slow machine-level drift (VM CPU frequency, background
// load) hits every fleet size equally instead of biasing whichever
// batch ran last. On a multi-core runner the assertion is the strict
// one the protocol is built for: workers=4 must beat workers=1 —
// simulation genuinely parallelizes, so losing means the coordinator
// is back on the hot path. A single-CPU machine serializes the
// simulation work regardless of fleet size, so there the check
// degrades to overhead parity: workers=4 may not be more than 25%
// slower than workers=1. Gated behind PROPANE_SCALING_SMOKE=1 so
// plain `go test ./...` stays fast.
func TestDistributedScalingSmoke(t *testing.T) {
	if os.Getenv("PROPANE_SCALING_SMOKE") == "" {
		t.Skip("set PROPANE_SCALING_SMOKE=1 to run the distributed scaling smoke test")
	}
	best := map[int]time.Duration{}
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, 2, 4} {
			dir, err := os.MkdirTemp("", "propane-scaling-smoke-*")
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = distrib.Loopback(distrib.Config{
				Instance: "reduced",
				Tier:     runner.TierQuick,
				Dir:      dir,
				Units:    4,
			}, workers, distrib.WorkerOptions{Workers: 1})
			elapsed := time.Since(start)
			os.RemoveAll(dir)
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
			}
			if cur, ok := best[workers]; !ok || elapsed < cur {
				best[workers] = elapsed
			}
		}
	}
	for _, workers := range []int{1, 2, 4} {
		t.Logf("workers=%d best-of-3 wall clock: %v", workers, best[workers])
	}
	if runtime.NumCPU() > 1 {
		if best[4] >= best[1] {
			t.Fatalf("adding workers made the campaign slower: workers=4 best %v >= workers=1 best %v",
				best[4], best[1])
		}
		return
	}
	t.Logf("single CPU: no parallel speedup is possible, checking overhead parity only")
	if best[4] > best[1]*5/4 {
		t.Fatalf("distributed overhead grows with fleet size: workers=4 best %v > 1.25 * workers=1 best %v",
			best[4], best[1])
	}
}

// BenchmarkDistributedPaperCampaign runs the paper's full campaign
// through coordinator + N loopback workers — the scale-out yardstick
// against BenchmarkPaperScaleCampaign. Guarded behind
// PROPANE_PAPER_BENCH=1 like its single-node counterpart.
func BenchmarkDistributedPaperCampaign(b *testing.B) {
	if os.Getenv("PROPANE_PAPER_BENCH") == "" {
		b.Skip("set PROPANE_PAPER_BENCH=1 to run the full paper campaign through the distributed path")
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDistributed(b, "paper", runner.TierFull, workers)
		})
	}
}

// BenchmarkDistributedPaperCampaignAdaptive runs the paper campaign
// adaptively through coordinator + N loopback workers: the stopping
// decisions stay with the coordinator's sequential scheduler, the
// fleet only executes leased job lists. Compare against
// BenchmarkCampaignAdaptive (single node) and the fixed-matrix
// BenchmarkDistributedPaperCampaign.
func BenchmarkDistributedPaperCampaignAdaptive(b *testing.B) {
	if os.Getenv("PROPANE_PAPER_BENCH") == "" {
		b.Skip("set PROPANE_PAPER_BENCH=1 to run the adaptive paper campaign through the distributed path")
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			benchDistributedMode(b, "paper", runner.TierFull, workers, campaign.AdaptiveForce)
		})
	}
}

// TestAdaptiveDistributedScalingSmoke is the adaptive twin of
// TestDistributedScalingSmoke: carve-on-demand must parallelize too.
// On a multi-core runner a 4-worker adaptive fleet must strictly beat
// a 1-worker one — if it doesn't, the claim frontier is serializing
// the fleet (e.g. checkpoints opening too little work per lease). On
// a single CPU the check degrades to overhead parity like the
// fixed-matrix smoke. Gated behind PROPANE_SCALING_SMOKE=1.
func TestAdaptiveDistributedScalingSmoke(t *testing.T) {
	if os.Getenv("PROPANE_SCALING_SMOKE") == "" {
		t.Skip("set PROPANE_SCALING_SMOKE=1 to run the adaptive distributed scaling smoke test")
	}
	best := map[int]time.Duration{}
	for rep := 0; rep < 3; rep++ {
		for _, workers := range []int{1, 4} {
			dir, err := os.MkdirTemp("", "propane-adaptive-scaling-*")
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			_, err = distrib.Loopback(distrib.Config{
				Instance: "reduced",
				Tier:     runner.TierFull,
				Dir:      dir,
				Adaptive: campaign.AdaptiveForce,
			}, workers, distrib.WorkerOptions{Workers: 1})
			elapsed := time.Since(start)
			os.RemoveAll(dir)
			if err != nil {
				t.Fatalf("workers=%d rep=%d: %v", workers, rep, err)
			}
			if cur, ok := best[workers]; !ok || elapsed < cur {
				best[workers] = elapsed
			}
		}
	}
	for _, workers := range []int{1, 4} {
		t.Logf("adaptive workers=%d best-of-3 wall clock: %v", workers, best[workers])
	}
	if runtime.NumCPU() > 1 {
		if best[4] >= best[1] {
			t.Fatalf("adding workers made the adaptive campaign slower: workers=4 best %v >= workers=1 best %v",
				best[4], best[1])
		}
		return
	}
	t.Logf("single CPU: no parallel speedup is possible, checking overhead parity only")
	if best[4] > best[1]*5/4 {
		t.Fatalf("adaptive distributed overhead grows with fleet size: workers=4 best %v > 1.25 * workers=1 best %v",
			best[4], best[1])
	}
}

// synthBenchTarget compiles examples/synth/arrestor.yaml once per
// process for the DSL-vs-handwritten pair below.
var (
	synthBenchOnce sync.Once
	synthBenchTgt  *target.Target
)

func synthBenchCampaign(b *testing.B) campaign.Config {
	b.Helper()
	synthBenchOnce.Do(func() {
		data, err := os.ReadFile(filepath.Join("examples", "synth", "arrestor.yaml"))
		if err != nil {
			panic(err)
		}
		spec, err := synth.Parse(data)
		if err != nil {
			panic(err)
		}
		compiled, err := synth.Compile(spec)
		if err != nil {
			panic(err)
		}
		synthBenchTgt = compiled.Target
	})
	cfg := benchCampaign()
	cfg.Arrestor = arrestor.Config{}
	cfg.Custom = synthBenchTgt
	return cfg
}

// BenchmarkArrestorCampaignHandwritten is the baseline of the DSL
// overhead pair: the 52-run bench campaign through the hand-written
// arrestor modules.
func BenchmarkArrestorCampaignHandwritten(b *testing.B) {
	cfg := benchCampaign()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArrestorCampaignDSL runs the identical campaign through
// the DSL-compiled target (examples/synth/arrestor.yaml). The two
// produce bit-identical matrices (internal/synth's equivalence
// tests), so the delta against the handwritten baseline is pure
// generic-dispatch overhead: port-buffer latching plus one interface
// call per module step.
func BenchmarkArrestorCampaignDSL(b *testing.B) {
	cfg := synthBenchCampaign(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := campaign.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSynthCompile measures the document pipeline alone: parse
// (YAML subset decoder), validation and compilation to a registered
// target, without running anything.
func BenchmarkSynthCompile(b *testing.B) {
	data, err := os.ReadFile(filepath.Join("examples", "synth", "arrestor.yaml"))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spec, err := synth.Parse(data)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := synth.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// benchService drives the multi-tenant service path end to end per
// iteration: boot a service over a fresh directory, run a shared
// 3-worker in-process fleet against its HTTP API, submit `campaigns`
// quick-tier campaigns from distinct tenants, and wait for every one
// to assemble. With warm=true the workers' persistent memo store is
// pre-populated by an untimed campaign first, so the timed iterations
// measure the cross-campaign memo economy (the cold/warm delta is
// what the store buys).
func benchService(b *testing.B, campaigns int, warm bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
		if err != nil {
			b.Fatal(err)
		}
		svc, err := service.Open(service.Options{Dir: filepath.Join(dir, "svc"), Units: 4, Store: st})
		if err != nil {
			b.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv := svc.Server()
		go srv.Serve(l)
		url := "http://" + l.Addr().String()

		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_ = distrib.RunWorkerContext(ctx, url, distrib.WorkerOptions{
					Name: fmt.Sprintf("bench-w%d", w), Dir: filepath.Join(dir, "scratch"),
					Workers: 1, Memo: st, PollInterval: 10 * time.Millisecond,
				})
			}(w)
		}
		submitAndWait := func(n int) {
			ids := make([]string, 0, n)
			for c := 0; c < n; c++ {
				info, serr := svc.Submit(fmt.Sprintf("tenant-%d", c), service.SubmitRequest{Instance: "reduced", Tier: "quick"})
				if serr != nil {
					b.Fatal(serr)
				}
				ids = append(ids, info.ID)
			}
			for _, id := range ids {
				for {
					ci, ok := svc.Campaign(id)
					if ok && ci.State == service.StateDone {
						break
					}
					if ok && ci.State == service.StateFailed {
						b.Fatalf("campaign %s failed: %s", id, ci.Error)
					}
					time.Sleep(5 * time.Millisecond)
				}
			}
		}
		if warm {
			submitAndWait(1)
		}
		b.StartTimer()
		submitAndWait(campaigns)
		b.StopTimer()
		cancel()
		wg.Wait()
		srv.Close()
		svc.Close()
		st.Close()
		b.StartTimer()
	}
}

// BenchmarkServiceMultiCampaign measures campaign-as-a-service
// throughput: N concurrent quick-tier campaigns from distinct tenants
// over one shared 3-worker fleet, cold (empty memo store) and warm
// (an identical campaign finished first in the same service, so each
// campaign is an in-process repeat: it takes its config digest from
// the service's memo, runs no golden pass, copies the finished
// campaign's journal and artifacts and shares its result, without the
// fleet).
func BenchmarkServiceMultiCampaign(b *testing.B) {
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("campaigns=%d/store=cold", n), func(b *testing.B) { benchService(b, n, false) })
		b.Run(fmt.Sprintf("campaigns=%d/store=warm", n), func(b *testing.B) { benchService(b, n, true) })
	}
}
