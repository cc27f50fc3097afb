// Command propane runs the paper's fault-injection campaign against
// the simulated aircraft-arrestment system, estimates the error
// permeability matrix, and regenerates the paper's tables and figures.
//
// Usage:
//
//	propane [-scale tiny|reduced|paper] [-workers N] [-table all|1|2|3|4]
//	        [-uniform] [-advice] [-dot DIR] [-artifacts DIR [-resume]]
//	        [-run-budget N] [-max-retries N] [-quarantine-after N]
//	        [-adaptive off|auto|force [-ci-epsilon E]]
//	        [-cpuprofile F] [-memprofile F]
//	        [-synth FILE [-synth-tier quick|full]]
//
// -scale selects the campaign size (tiny runs in well under a second,
// paper executes the full 52 000-run campaign). -dot writes Graphviz
// renderings of Figs. 8–12 into DIR. -artifacts routes the campaign
// through the journaled runner (internal/runner), so a long campaign
// killed mid-flight resumes with -resume instead of starting over.
// -synth compiles a declarative topology document (YAML/JSON, see
// examples/synth/) and runs the full analysis pipeline — permeability
// tables, placement advice, sensitivity — against the compiled
// target; it overrides -scale, -config and -dual.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/core"
	"propane/internal/expfile"
	"propane/internal/physics"
	"propane/internal/profiling"
	"propane/internal/report"
	"propane/internal/runner"
	"propane/internal/sim"
	"propane/internal/synth"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "propane:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	fs := flag.NewFlagSet("propane", flag.ContinueOnError)
	scale := fs.String("scale", "reduced", "campaign scale: tiny, reduced or paper")
	workers := fs.Int("workers", 0, "concurrent injection runs (<= 0 means GOMAXPROCS)")
	table := fs.String("table", "all", "which table to print: all, 1, 2, 3 or 4")
	uniform := fs.Bool("uniform", false, "print the uniform-propagation check")
	advice := fs.Bool("advice", false, "print the Section 5 EDM/ERM placement advice")
	latency := fs.Bool("latency", false, "print per-pair propagation latency and error classification")
	sensitivity := fs.Bool("sensitivity", false, "print the hardening-priority (sensitivity) table per system output")
	criticality := fs.Bool("criticality", false, "print the input-criticality table per system output")
	dual := fs.Bool("dual", false, "analyse the master/slave two-node configuration instead of the paper's single node")
	validate := fs.Bool("validate", false, "print the compositional-prediction cross-validation table")
	trees := fs.Bool("trees", false, "print ASCII backtrack and trace trees (Figs. 10-12)")
	reportPath := fs.String("report", "", "write the complete Markdown report to this file")
	configPath := fs.String("config", "", "experiment description file (JSON); overrides -scale and -dual")
	synthPath := fs.String("synth", "", "declarative topology document (YAML/JSON) to compile and campaign; overrides -scale, -config and -dual")
	synthTier := fs.String("synth-tier", "quick", "campaign tier of the -synth document to run")
	dotDir := fs.String("dot", "", "write Graphviz figures (Figs. 8-12) into this directory")
	artifacts := fs.String("artifacts", "", "journal the campaign into this artifact directory (resumable)")
	resume := fs.Bool("resume", false, "resume a killed campaign from the -artifacts journal")
	runBudget := fs.Int64("run-budget", 0, "per-run step budget: terminate and classify a run as hung after this many work units (0 = unlimited)")
	maxRetries := fs.Int("max-retries", 0, "retries for transient journal/artifact I/O failures with -artifacts (0 = default 3, negative disables)")
	quarantineAfter := fs.Int("quarantine-after", 0, "quarantine a job after this many consecutive worker crashes (0 = default 3, negative disables → abort)")
	adaptiveFlag := fs.String("adaptive", "off", "sequential CI-driven sampling: off (full matrix), auto, or force")
	ciEpsilon := fs.Float64("ci-epsilon", 0, "adaptive stopping half-width ε in (0, 0.5); 0 keeps the 0.05 default")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the campaign finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	var cfg campaign.Config
	if *synthPath != "" {
		data, err := os.ReadFile(*synthPath)
		if err != nil {
			return err
		}
		spec, err := synth.Parse(data)
		if err != nil {
			return err
		}
		compiled, err := synth.Compile(spec)
		if err != nil {
			return err
		}
		cfg, err = compiled.Config(*synthTier)
		if err != nil {
			return err
		}
	} else if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		cfg, err = expfile.Parse(data)
		if err != nil {
			return err
		}
	} else {
		var err error
		cfg, err = configForScale(*scale)
		if err != nil {
			return err
		}
		cfg.Dual = *dual
	}
	cfg.Workers = *workers
	adaptive, err := campaign.ParseAdaptiveMode(*adaptiveFlag)
	if err != nil {
		return fmt.Errorf("-adaptive: %w", err)
	}
	if adaptive != campaign.AdaptiveOff {
		cfg.Adaptive = adaptive
	}
	if *ciEpsilon != 0 {
		cfg.CIEpsilon = *ciEpsilon // campaign.Config.Validate bounds it
	}

	errsPerPoint := len(cfg.Bits) + len(cfg.Models)
	fmt.Printf("running campaign: %d test cases × %d instants × %d errors per input signal...\n",
		len(cfg.TestCases), len(cfg.Times), errsPerPoint)
	lastDecile := -1
	cfg.Progress = func(done, total int) {
		if total < 10000 {
			return // quiet for short campaigns
		}
		if decile := done * 10 / total; decile > lastDecile {
			lastDecile = decile
			fmt.Printf("  %d%% (%d/%d runs)\n", decile*10, done, total)
		}
	}
	var res *campaign.Result
	if *artifacts != "" {
		name := "propane-" + *scale
		if *configPath != "" {
			name = "propane-config"
		}
		if *synthPath != "" {
			name = "propane-synth"
		}
		rr, err := runner.Run(cfg, runner.Options{
			Name: name, Dir: *artifacts, Resume: *resume,
			LogInterval:     10 * time.Second,
			Logf:            func(format string, a ...any) { fmt.Printf(format+"\n", a...) },
			RunBudgetSteps:  *runBudget,
			MaxRetries:      *maxRetries,
			QuarantineAfter: *quarantineAfter,
		})
		if err != nil {
			return err
		}
		res = rr.Result
		fmt.Printf("artifacts journaled in %s\n", rr.Dir)
	} else {
		if *resume {
			return fmt.Errorf("-resume needs -artifacts (there is no journal to resume from)")
		}
		// The direct path gets the same supervision as the journaled
		// one: watchdog budget plus retry/quarantine of worker faults.
		if *runBudget > 0 {
			cfg.Budget.Steps = *runBudget
		}
		if cfg.OnJobError == nil && *quarantineAfter >= 0 {
			after := *quarantineAfter
			if after == 0 {
				after = 3
			}
			cfg.OnJobError = campaign.QuarantinePolicy(after, func(format string, a ...any) {
				fmt.Printf(format+"\n", a...)
			})
		}
		var err error
		res, err = campaign.Run(cfg)
		if err != nil {
			return err
		}
	}
	fmt.Printf("%d injection runs completed (%d traps never fired)\n", res.Runs, res.Unfired)
	if res.Crashes+res.Hangs+len(res.Quarantined) > 0 {
		fmt.Printf("supervised failure modes: %d crashes, %d hangs, %d quarantined jobs (excluded from all estimates)\n",
			res.Crashes, res.Hangs, len(res.Quarantined))
	}
	if total := res.Pruning.Total(); total > res.Pruning.Executed {
		fmt.Printf("equivalence pruning: %d/%d runs resolved without full simulation (%d noop, %d unfired, %d memoized, %d converged)\n",
			total-res.Pruning.Executed, total, res.Pruning.NoOp, res.Pruning.Unfired,
			res.Pruning.Memoized, res.Pruning.Converged)
	}
	fmt.Println()

	if err := printTables(res, *table); err != nil {
		return err
	}
	if *uniform {
		fmt.Println(report.UniformPropagationTable(res))
	}
	if *advice {
		out, err := report.AdviceReport(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if *latency {
		fmt.Println(report.LatencyTable(res))
	}
	if *sensitivity {
		for _, out := range res.Topology.SystemOutputs() {
			s, err := report.SensitivityTable(res.Matrix, out)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	if *criticality {
		for _, out := range res.Topology.SystemOutputs() {
			s, err := report.CriticalityTable(res.Matrix, out)
			if err != nil {
				return err
			}
			fmt.Println(s)
		}
	}
	if *validate {
		s, err := report.ValidationTable(res)
		if err != nil {
			return err
		}
		fmt.Println(s)
	}
	if *trees {
		for _, out := range res.Topology.SystemOutputs() {
			tree, err := core.BacktrackTree(res.Matrix, out)
			if err != nil {
				return err
			}
			fmt.Println(report.TreeText(tree))
		}
		for _, in := range res.Topology.SystemInputs() {
			tree, err := core.TraceTree(res.Matrix, in)
			if err != nil {
				return err
			}
			fmt.Println(report.TreeText(tree))
		}
	}
	if *dotDir != "" {
		if err := writeFigures(res.Matrix, *dotDir); err != nil {
			return err
		}
		fmt.Printf("figures written to %s\n", *dotDir)
	}
	if *reportPath != "" {
		md, err := report.Markdown(res, report.MarkdownOptions{
			Latency:     *latency,
			Sensitivity: *sensitivity,
			Criticality: *criticality,
			Validation:  *validate,
			Uniform:     *uniform,
		})
		if err != nil {
			return err
		}
		if err := os.WriteFile(*reportPath, []byte(md), 0o644); err != nil {
			return err
		}
		fmt.Printf("report written to %s\n", *reportPath)
	}
	return nil
}

func configForScale(scale string) (campaign.Config, error) {
	switch scale {
	case "paper":
		return campaign.PaperConfig(), nil
	case "reduced":
		return campaign.ReducedConfig(), nil
	case "tiny":
		cases, err := physics.Grid(1, 2, 11000, 11000, 50, 70)
		if err != nil {
			return campaign.Config{}, err
		}
		return campaign.Config{
			Arrestor:       arrestor.DefaultConfig(),
			TestCases:      cases,
			Times:          []sim.Millis{1500, 3500},
			Bits:           []uint{2, 14},
			HorizonMs:      6000,
			DirectWindowMs: 500,
		}, nil
	default:
		return campaign.Config{}, fmt.Errorf("unknown scale %q (want tiny, reduced or paper)", scale)
	}
}

func printTables(res *campaign.Result, which string) error {
	want := func(t string) bool { return which == "all" || which == t }
	if want("1") {
		fmt.Println(report.Table1(res))
	}
	if want("2") {
		out, err := report.Table2(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("3") {
		out, err := report.Table3(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	if want("4") {
		for _, sysOut := range res.Topology.SystemOutputs() {
			out, err := report.Table4(res.Matrix, sysOut, true)
			if err != nil {
				return err
			}
			fmt.Println(out)
		}
	}
	switch which {
	case "all", "1", "2", "3", "4":
		return nil
	default:
		return fmt.Errorf("unknown table %q (want all, 1, 2, 3 or 4)", which)
	}
}

func writeFigures(m *core.Matrix, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, err := core.NewGraph(m)
	if err != nil {
		return err
	}
	files := map[string]string{
		"fig08_topology.dot":           report.TopologyDOT(m.System()),
		"fig09_permeability_graph.dot": report.PermeabilityGraphDOT(g),
	}
	for _, output := range m.System().SystemOutputs() {
		bt, err := core.BacktrackTree(m, output)
		if err != nil {
			return err
		}
		name := "fig10_backtrack_" + output + ".dot"
		files[name] = report.TreeDOT(bt, "backtrack-"+output)
	}
	// Figs. 11 and 12 are the trace trees of ADC and PACNT; the
	// remaining inputs get their trees too (the paper omits TIC1 and
	// TCNT as "very similar" to PACNT).
	figName := map[string]string{
		arrestor.SigADC:   "fig11_trace_ADC.dot",
		arrestor.SigPACNT: "fig12_trace_PACNT.dot",
	}
	for _, input := range m.System().SystemInputs() {
		tt, err := core.TraceTree(m, input)
		if err != nil {
			return err
		}
		name, ok := figName[input]
		if !ok {
			name = "figxx_trace_" + input + ".dot"
		}
		files[name] = report.TreeDOT(tt, "trace-"+input)
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	// Also export the raw matrix for permtool-style post-processing.
	return os.WriteFile(filepath.Join(dir, "matrix.csv"), []byte(report.MatrixCSV(m)), 0o644)
}
