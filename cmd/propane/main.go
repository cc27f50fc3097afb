// Command propane runs a fault-injection campaign against a
// registered target — by default the paper's simulated
// aircraft-arrestment system — estimates the error permeability
// matrix, and regenerates the paper's tables and figures. Its other
// modes analyse a given matrix, print a golden trajectory, and
// compare recorded traces offline.
//
// Usage:
//
//	propane -list
//	propane [-instance NAME] [-tier quick|full] [-dir DIR [-resume]]
//	        [-config FILE] [-synth FILES] [-workers N]
//	        [-run-budget N] [-max-retries N] [-quarantine-after N]
//	        [-adaptive off|auto|force [-ci-epsilon E]]
//	        [-table all|1|2|3|4] [-uniform] [-advice] [-latency]
//	        [-sensitivity] [-criticality] [-fmeca] [-prob SPEC]
//	        [-validate] [-trees] [-dot DIR] [-report FILE]
//	        [-cpuprofile F] [-memprofile F]
//	propane -matrix CSV -topology JSON [-table all|2|3|4] [-advice]
//	        [-sensitivity] [-criticality] [-fmeca] [-prob SPEC]
//	        [-trees] [-dot DIR]
//	propane -trajectory [-mass KG] [-velocity MS] [-horizon MS]
//	        [-dual] [-record FILE]
//	propane -trace FILE [-diff RUN]
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
// Figs. 8–12 into DIR, with the matrix (matrix.csv) and its topology
// (topology.json) that -matrix and -topology read back.
//
// -matrix applies the analysis framework to a permeability matrix
// without fault injection: a CSV of module,in,out[,...],value rows
// over the topology JSON of internal/model. Every matrix section of a
// campaign applies to it; Table 1 and the sections that need the
// runs do not.
//
// -trajectory runs one test case without injections and prints the
// arrestment trajectory every 250 ms: velocity, position, pulse
// count, checkpoint index, set point, TOC2 and applied pressure.
// -record also writes every signal's trace as a PTRC file. -trace
// summarises such a file; with -diff it runs the offline Golden Run
// Comparison of a run's trace against it.
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
	"slices"
	"strings"
	"time"

	"propane/cmd/internal/cli"
	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/core"
	"propane/internal/expfile"
	"propane/internal/physics"
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

// The flags each mode reads beyond its own; cli.CheckMode refuses the
// rest. analysisFlags apply to every matrix, a campaign's or a loaded
// one; campaignFlags only to a campaign.
const (
	analysisFlags = "table advice sensitivity criticality fmeca prob trees dot"
	campaignFlags = "dir resume workers run-budget adaptive ci-epsilon max-retries quarantine-after " +
		"uniform latency validate report cpuprofile memprofile " + analysisFlags
)

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("propane", flag.ContinueOnError)
	sharedFlags := cli.Flags(fs, "reduced", string(runner.TierFull))
	list := fs.Bool("list", false, "list the registered campaign instances and exit")
	configPath := fs.String("config", "", "experiment description file (JSON) to run instead of a registered instance")
	synthFiles := fs.String("synth", "", "comma-separated declarative topology documents (YAML/JSON) to compile and register as instances")
	maxRetries := fs.Int("max-retries", 0, "retries for transient journal/artifact I/O failures (0 = default 3, negative disables)")
	quarantineAfter := fs.Int("quarantine-after", 0, "quarantine a job after this many consecutive worker crashes (0 = default 3, negative disables → abort)")
	var a analysis
	fs.StringVar(&a.table, "table", "all", "which table to print: all, 1, 2, 3 or 4 (-matrix: all, 2, 3 or 4)")
	fs.BoolVar(&a.uniform, "uniform", false, "print the uniform-propagation check")
	fs.BoolVar(&a.advice, "advice", false, "print the Section 5 EDM/ERM placement advice")
	fs.BoolVar(&a.latency, "latency", false, "print per-pair propagation latency and error classification")
	fs.BoolVar(&a.sensitivity, "sensitivity", false, "print the hardening-priority (sensitivity) table per system output")
	fs.BoolVar(&a.criticality, "criticality", false, "print the input-criticality table per system output")
	fs.BoolVar(&a.fmeca, "fmeca", false, "print the FMECA-complement worksheet")
	prob := fs.String("prob", "", "per-input error probabilities for the P' profile of each system output, e.g. \"ADC=0.1,PACNT=0.02\"")
	fs.BoolVar(&a.validate, "validate", false, "print the compositional-prediction cross-validation table")
	fs.BoolVar(&a.trees, "trees", false, "print ASCII backtrack and trace trees (Figs. 10-12)")
	fs.StringVar(&a.dot, "dot", "", "write Graphviz figures (Figs. 8-12), matrix.csv and topology.json into this directory")
	reportPath := fs.String("report", "", "write the complete Markdown report to this file")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the campaign finishes")
	matrixPath := fs.String("matrix", "", "analyse this permeability CSV (module,in,out[,...],value) instead of running a campaign")
	topoPath := fs.String("topology", "", "-matrix: the system topology JSON")
	trajectory := fs.Bool("trajectory", false, "print one golden arrestment trajectory instead of running a campaign")
	var tc physics.TestCase
	fs.Float64Var(&tc.MassKg, "mass", 14000, "-trajectory: aircraft mass in kg (paper range 8000-20000)")
	fs.Float64Var(&tc.VelocityMS, "velocity", 60, "-trajectory: engagement velocity in m/s (paper range 40-80)")
	horizon := fs.Int64("horizon", 6000, "-trajectory: simulation horizon in ms")
	dual := fs.Bool("dual", false, "-trajectory: simulate the master/slave deployment")
	recordPath := fs.String("record", "", "-trajectory: also write every signal's trace to this PTRC file")
	tracePath := fs.String("trace", "", "summarise this PTRC trace file instead of running a campaign")
	diffPath := fs.String("diff", "", "-trace: compare this run's trace file with the -trace golden run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := sharedFlags()
	if err != nil {
		return err
	}
	mode, reads := "-instance", "instance tier synth "+campaignFlags
	switch {
	case *list:
		mode, reads = "-list", "list synth"
	case *configPath != "":
		mode, reads = "-config", "config "+campaignFlags
	case *matrixPath != "":
		mode, reads = "-matrix", "matrix topology "+analysisFlags
	case *trajectory:
		mode, reads = "-trajectory", "trajectory mass velocity horizon dual record"
	case *tracePath != "":
		mode, reads = "-trace", "trace diff"
	}
	if err := cli.CheckMode(fs, mode, func(name string) bool { return slices.Contains(strings.Fields(reads), name) }); err != nil {
		return err
	}
	switch {
	case !slices.Contains([]string{"all", "1", "2", "3", "4"}, a.table):
		return fmt.Errorf("unknown table %q (want all, 1, 2, 3 or 4)", a.table)
	case mode == "-matrix" && a.table == "1":
		return fmt.Errorf("-table 1 needs a campaign's runs; -matrix has only the matrix")
	}
	if *prob != "" {
		if a.probs, err = parseProbs(*prob); err != nil {
			return err
		}
	}
	switch mode {
	case "-matrix":
		if *topoPath == "" {
			return fmt.Errorf("-matrix needs -topology")
		}
		m, err := loadMatrix(*topoPath, *matrixPath)
		if err != nil {
			return err
		}
		return a.print(out, m, nil)
	case "-trajectory":
		return printTrajectory(out, tc, *horizon, *dual, *recordPath)
	case "-trace":
		return printTrace(out, *tracePath, *diffPath)
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
	if err := a.print(out, res.Matrix, res); err != nil {
		return err
	}
	if *reportPath != "" {
		md, err := report.Markdown(res, report.MarkdownOptions{
			Latency:     a.latency,
			Sensitivity: a.sensitivity,
			Criticality: a.criticality,
			Validation:  a.validate,
			Uniform:     a.uniform,
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

// analysis selects the sections printed of a permeability matrix.
// uniform, latency, validate and Table 1 need the campaign's runs.
type analysis struct {
	table, dot                            string
	uniform, advice, latency, sensitivity bool
	criticality, fmeca, validate, trees   bool
	probs                                 map[string]float64
}

// print prints the selected sections of m in one fixed order and
// writes the -dot figures. res is the campaign that estimated m, or
// nil for a loaded matrix.
func (a analysis) print(out io.Writer, m *core.Matrix, res *campaign.Result) error {
	want := func(t string) bool { return a.table == "all" || a.table == t }
	whole := []string{""} // a section of the whole matrix, printed once
	outputs, inputs := m.System().SystemOutputs(), m.System().SystemInputs()
	for _, s := range []struct {
		on      bool
		signals []string
		render  func(signal string) (string, error)
	}{
		{want("1") && res != nil, whole, func(string) (string, error) { return report.Table1(res), nil }},
		{want("2"), whole, func(string) (string, error) { return report.Table2(m) }},
		{want("3"), whole, func(string) (string, error) { return report.Table3(m) }},
		{want("4"), outputs, func(o string) (string, error) { return report.Table4(m, o, true) }},
		{a.uniform, whole, func(string) (string, error) { return report.UniformPropagationTable(res), nil }},
		{a.advice, whole, func(string) (string, error) { return report.AdviceReport(m) }},
		{a.latency, whole, func(string) (string, error) { return report.LatencyTable(res), nil }},
		{a.sensitivity, outputs, func(o string) (string, error) { return report.SensitivityTable(m, o) }},
		{a.criticality, outputs, func(o string) (string, error) { return report.CriticalityTable(m, o) }},
		{a.fmeca, whole, func(string) (string, error) { return report.FMECATable(m) }},
		{a.probs != nil, outputs, func(o string) (string, error) { return report.ProfileTable(m, o, a.probs) }},
		{a.validate, whole, func(string) (string, error) { return report.ValidationTable(res) }},
		{a.trees, outputs, func(o string) (string, error) { return treeText(core.BacktrackTree(m, o)) }},
		{a.trees, inputs, func(in string) (string, error) { return treeText(core.TraceTree(m, in)) }},
	} {
		if !s.on {
			continue
		}
		for _, signal := range s.signals {
			text, err := s.render(signal)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, text)
		}
	}
	if a.dot == "" {
		return nil
	}
	if err := writeFigures(m, a.dot); err != nil {
		return err
	}
	fmt.Fprintf(out, "figures written to %s\n", a.dot)
	return nil
}

func treeText(t *core.Tree, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return report.TreeText(t), nil
}

func writeFigures(m *core.Matrix, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	g, err := core.NewGraph(m)
	if err != nil {
		return err
	}
	topology, err := m.System().MarshalJSON()
	if err != nil {
		return err
	}
	files := map[string]string{
		"fig08_topology.dot":           report.TopologyDOT(m.System()),
		"fig09_permeability_graph.dot": report.PermeabilityGraphDOT(g),
		// The matrix and its topology, for -matrix and -topology.
		"matrix.csv":    report.MatrixCSV(m),
		"topology.json": string(topology) + "\n",
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
	return nil
}
