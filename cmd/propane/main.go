// Command propane runs a fault-injection campaign against a
// registered target — by default the paper's simulated
// aircraft-arrestment system — estimates the error permeability
// matrix, and regenerates the paper's tables and figures.
//
// Usage:
//
//	propane -list
//	propane [-instance NAME] [-tier quick|full] [-dir DIR [-resume]]
//	        [-config FILE] [-synth FILES] [-workers N]
//	        [-run-budget N] [-max-retries N] [-quarantine-after N]
//	        [-adaptive off|auto|force [-ci-epsilon E]]
//	        [-table all|1|2|3|4] [-uniform] [-advice] [-latency]
//	        [-sensitivity] [-criticality] [-validate] [-trees]
//	        [-dot DIR] [-report FILE] [-cpuprofile F] [-memprofile F]
//
// -instance and -tier select a campaign from the registry
// (internal/runner; -list names them): reduced/full by default,
// reduced/quick in well under a second, paper/full for the full
// 52 000-run campaign, dual/full for the master/slave deployment.
// -config runs an experiment description file (internal/expfile)
// instead. -synth compiles declarative topology documents (YAML/JSON,
// see examples/synth/) and registers each as an instance, which
// -instance then selects.
//
// Every campaign runs journaled through internal/runner and leaves
// its artifact set in -dir: config.json, journal.bin, metrics.json,
// failures.md and report.md. A campaign killed mid-flight resumes
// from the journal with -resume instead of starting over. Without
// -dir the artifacts go to a temporary directory removed on exit.
//
// Runs execute supervised: -run-budget bounds each run's
// deterministic work units (an exceeded budget classifies the run as
// a hang), target panics are classified as crashes, transient
// journal and artifact I/O failures retry with backoff
// (-max-retries), and a job that repeatedly crashes its worker is
// quarantined after -quarantine-after consecutive failures instead of
// wedging the campaign. -dot writes Graphviz renderings of
// Figs. 8–12 into DIR.
//
// To spread one campaign over several processes, run a coordinator
// and its workers with command propaned.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"propane/cmd/internal/cli"
	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/core"
	"propane/internal/expfile"
	"propane/internal/profiling"
	"propane/internal/report"
	"propane/internal/runner"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "propane:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("propane", flag.ContinueOnError)
	campaignFlags := cli.Flags(fs, "reduced", string(runner.TierFull))
	list := fs.Bool("list", false, "list the registered campaign instances and exit")
	configPath := fs.String("config", "", "experiment description file (JSON) to run instead of a registered instance")
	synthFiles := fs.String("synth", "", "comma-separated declarative topology documents (YAML/JSON) to compile and register as instances")
	maxRetries := fs.Int("max-retries", 0, "retries for transient journal/artifact I/O failures (0 = default 3, negative disables)")
	quarantineAfter := fs.Int("quarantine-after", 0, "quarantine a job after this many consecutive worker crashes (0 = default 3, negative disables → abort)")
	table := fs.String("table", "all", "which table to print: all, 1, 2, 3 or 4")
	uniform := fs.Bool("uniform", false, "print the uniform-propagation check")
	advice := fs.Bool("advice", false, "print the Section 5 EDM/ERM placement advice")
	latency := fs.Bool("latency", false, "print per-pair propagation latency and error classification")
	sensitivity := fs.Bool("sensitivity", false, "print the hardening-priority (sensitivity) table per system output")
	criticality := fs.Bool("criticality", false, "print the input-criticality table per system output")
	validate := fs.Bool("validate", false, "print the compositional-prediction cross-validation table")
	trees := fs.Bool("trees", false, "print ASCII backtrack and trace trees (Figs. 10-12)")
	reportPath := fs.String("report", "", "write the complete Markdown report to this file")
	dotDir := fs.String("dot", "", "write Graphviz figures (Figs. 8-12) into this directory")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the campaign finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := campaignFlags()
	if err != nil {
		return err
	}
	mode, reads := "-instance", func(name string) bool { return name != "config" && name != "list" }
	switch {
	case *list:
		mode, reads = "-list", func(name string) bool { return name == "list" || name == "synth" }
	case *configPath != "":
		mode, reads = "-config", func(name string) bool { return name != "instance" && name != "tier" && name != "synth" }
	}
	if err := cli.CheckMode(fs, mode, reads); err != nil {
		return err
	}
	if c.Resume && c.Dir == "" {
		return fmt.Errorf("-resume needs -dir (there is no journal to resume from)")
	}

	var registered []string
	for _, path := range strings.Split(*synthFiles, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		def, err := runner.RegisterSynthFile(path)
		if err != nil {
			return err
		}
		defer runner.Unregister(def.Name)
		registered = append(registered, fmt.Sprintf("%q", def.Name))
		fmt.Fprintf(out, "registered instance %q from %s\n", def.Name, path)
	}
	if *list {
		fmt.Fprintln(out, "registered campaign instances (tiers: quick, full):")
		for _, def := range runner.Instances() {
			fmt.Fprintf(out, "  %-14s %s\n", def.Name, def.Description)
		}
		return nil
	}
	instanceSet := false
	fs.Visit(func(f *flag.Flag) { instanceSet = instanceSet || f.Name == "instance" })
	if len(registered) > 0 && !instanceSet {
		return fmt.Errorf("-synth registered instance %s; select it with -instance", strings.Join(registered, ", "))
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

	opts := runner.Options{
		Dir:             c.Dir,
		Resume:          c.Resume,
		Workers:         c.Workers,
		RunBudgetSteps:  c.RunBudget,
		Adaptive:        c.Adaptive,
		CIEpsilon:       c.CIEpsilon,
		MaxRetries:      *maxRetries,
		QuarantineAfter: *quarantineAfter,
		LogInterval:     10 * time.Second,
		Logf:            func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) },
	}
	if opts.Dir == "" {
		tmp, err := os.MkdirTemp("", "propane-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		opts.Dir = tmp
	}
	var rr *runner.RunResult
	if *configPath != "" {
		data, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		cfg, err := expfile.Parse(data)
		if err != nil {
			return err
		}
		opts.Name = "propane-config"
		rr, err = runner.Run(cfg, opts)
		if err != nil {
			return err
		}
	} else {
		rr, err = runner.RunInstance(c.Instance, c.Tier, opts)
		if err != nil {
			return err
		}
	}
	cli.Summary(out, rr.Metrics, c.Dir)
	fmt.Fprintln(out)

	res := rr.Result
	if err := printTables(out, res, *table); err != nil {
		return err
	}
	if *uniform {
		fmt.Fprintln(out, report.UniformPropagationTable(res))
	}
	if *advice {
		s, err := report.AdviceReport(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	}
	if *latency {
		fmt.Fprintln(out, report.LatencyTable(res))
	}
	if *sensitivity {
		for _, sysOut := range res.Topology.SystemOutputs() {
			s, err := report.SensitivityTable(res.Matrix, sysOut)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
		}
	}
	if *criticality {
		for _, sysOut := range res.Topology.SystemOutputs() {
			s, err := report.CriticalityTable(res.Matrix, sysOut)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
		}
	}
	if *validate {
		s, err := report.ValidationTable(res)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	}
	if *trees {
		for _, sysOut := range res.Topology.SystemOutputs() {
			tree, err := core.BacktrackTree(res.Matrix, sysOut)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.TreeText(tree))
		}
		for _, in := range res.Topology.SystemInputs() {
			tree, err := core.TraceTree(res.Matrix, in)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, report.TreeText(tree))
		}
	}
	if *dotDir != "" {
		if err := writeFigures(res.Matrix, *dotDir); err != nil {
			return err
		}
		fmt.Fprintf(out, "figures written to %s\n", *dotDir)
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
		fmt.Fprintf(out, "report written to %s\n", *reportPath)
	}
	return nil
}

func printTables(out io.Writer, res *campaign.Result, which string) error {
	want := func(t string) bool { return which == "all" || which == t }
	if want("1") {
		fmt.Fprintln(out, report.Table1(res))
	}
	if want("2") {
		s, err := report.Table2(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	}
	if want("3") {
		s, err := report.Table3(res.Matrix)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, s)
	}
	if want("4") {
		for _, sysOut := range res.Topology.SystemOutputs() {
			s, err := report.Table4(res.Matrix, sysOut, true)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, s)
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
