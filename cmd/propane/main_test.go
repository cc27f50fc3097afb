package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"propane/internal/model"
	"propane/internal/runner"
)

func TestRunTinyEndToEnd(t *testing.T) {
	dotDir := t.TempDir()
	reportPath := filepath.Join(dotDir, "report.md")
	err := run([]string{
		"-instance", "reduced", "-tier", "quick", "-table", "2", "-uniform", "-advice",
		"-latency", "-sensitivity", "-criticality", "-validate", "-trees",
		"-dot", dotDir, "-report", reportPath,
	}, io.Discard)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if md, err := os.ReadFile(reportPath); err != nil || len(md) == 0 {
		t.Errorf("markdown report missing: %v", err)
	}
	// The figure set and matrix export must exist.
	for _, name := range []string{
		"fig08_topology.dot", "fig09_permeability_graph.dot",
		"fig10_backtrack_TOC2.dot", "fig11_trace_ADC.dot",
		"fig12_trace_PACNT.dot", "matrix.csv", "topology.json",
	} {
		if _, err := os.Stat(filepath.Join(dotDir, name)); err != nil {
			t.Errorf("missing artefact %s: %v", name, err)
		}
	}
}

func TestRunConfigFile(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "exp.json")
	doc := `{
		"target": "autobrake",
		"grid": {"masses": 1, "velocities": 1},
		"times_ms": [800],
		"bits": [14],
		"horizon_ms": 3000,
		"direct_window_ms": 300
	}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-config", cfgPath, "-table", "4"}, io.Discard); err != nil {
		t.Fatalf("run with config: %v", err)
	}
}

func TestRunList(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"paper", "reduced", "dual", "autobrake", "error-models", "tolerance"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list misses instance %s:\n%s", name, out.String())
		}
	}
}

func journalDigest(t *testing.T, dir string) string {
	t.Helper()
	_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return runner.RecordSetDigest(recs)
}

// TestRunWithArtifacts: a campaign run with -dir leaves the full
// artifact set, its journal holds exactly the records the runner
// produces for the same instance, and it resumes.
func TestRunWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-instance", "reduced", "-tier", "quick", "-table", "1", "-dir", dir}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run with -dir: %v", err)
	}
	for _, name := range []string{"config.json", "journal.bin", "metrics.json", "failures.md", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "campaign reduced/quick assembled") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	ref := t.TempDir()
	if _, err := runner.RunInstance("reduced", runner.TierQuick, runner.Options{Dir: ref}); err != nil {
		t.Fatal(err)
	}
	if got, want := journalDigest(t, dir), journalDigest(t, ref); got != want {
		t.Errorf("CLI journal digest %s, runner.RunInstance journal digest %s", got, want)
	}
	// -resume without -dir has no journal to resume from.
	if err := run([]string{"-instance", "reduced", "-tier", "quick", "-resume"}, io.Discard); err == nil {
		t.Error("-resume without -dir accepted")
	}
}

// TestRunReducedQuick: the journal a -dir run leaves makes the
// campaign resumable; a second run without -resume must refuse, with
// -resume it replays without executing a run.
func TestRunReducedQuick(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-instance", "reduced", "-tier", "quick", "-table", "1", "-dir", dir}
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "campaign reduced/quick") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	if err := run(args, io.Discard); err == nil {
		t.Error("re-run without -resume accepted an existing journal")
	}
	out.Reset()
	if err := run(append(args, "-resume"), &out); err != nil {
		t.Fatalf("resume of complete campaign: %v", err)
	}
	if !strings.Contains(out.String(), "0 executed") {
		t.Errorf("complete campaign re-executed runs:\n%s", out.String())
	}
}

// TestRunLeavesNoTempDir: without -dir the artifacts go to a
// temporary directory that is removed whether the run succeeds or
// fails.
func TestRunLeavesNoTempDir(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	for _, tc := range []struct {
		args    []string
		wantErr bool
	}{
		{[]string{"-instance", "reduced", "-tier", "quick", "-table", "1"}, false},
		{[]string{"-instance", "reduced", "-tier", "quick", "-table", "9"}, true},
	} {
		if err := run(tc.args, io.Discard); (err != nil) != tc.wantErr {
			t.Fatalf("run(%v) = %v, want error %v", tc.args, err, tc.wantErr)
		}
		left, err := os.ReadDir(tmp)
		if err != nil {
			t.Fatal(err)
		}
		if len(left) > 0 {
			t.Errorf("run(%v) left %d entries in TMPDIR, first %s", tc.args, len(left), left[0].Name())
		}
	}
}

func TestRunHostileQuickReportsSupervisedModes(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-instance", "hostile", "-tier", "quick", "-dir", dir, "-table", "1",
		"-run-budget", "0", "-max-retries", "3", "-quarantine-after", "3"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "supervised failure modes:") {
		t.Errorf("summary misses the supervised failure modes:\n%s", out.String())
	}
	if strings.Contains(out.String(), "0 crashes, 0 hangs") {
		t.Errorf("hostile campaign reported no crashes/hangs:\n%s", out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "failures.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crash", "hang"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("failures.md misses %q", want)
		}
	}
}

func TestRunSynthDocument(t *testing.T) {
	doc := filepath.Join("..", "..", "examples", "synth", "hostile.yaml")
	reportPath := filepath.Join(t.TempDir(), "report.md")
	args := []string{"-synth", doc, "-instance", "synth-hostile", "-tier", "quick", "-table", "1", "-report", reportPath}
	if err := run(args, io.Discard); err != nil {
		t.Fatalf("run with -synth: %v", err)
	}
	if md, err := os.ReadFile(reportPath); err != nil || len(md) == 0 {
		t.Errorf("markdown report missing: %v", err)
	}
	// An undeclared tier in the document is a flag error, not a panic.
	if err := run([]string{"-synth", doc, "-instance", "synth-hostile", "-tier", "nightly"}, io.Discard); err == nil {
		t.Error("undeclared -tier of a -synth document accepted")
	}
}

// TestRunSynthInstance compiles a declarative topology document from
// the CLI, registers it, and journals its quick campaign exactly like
// a built-in instance.
func TestRunSynthInstance(t *testing.T) {
	dir := t.TempDir()
	synthFile := filepath.Join("..", "..", "examples", "synth", "hostile.yaml")
	var out strings.Builder
	args := []string{"-synth", synthFile, "-instance", "synth-hostile", "-tier", "quick",
		"-dir", dir, "-table", "1"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `registered instance "synth-hostile"`) {
		t.Errorf("registration line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "campaign synth-hostile/quick assembled") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "supervised failure modes:") {
		t.Errorf("compiled mines/tarpits produced no supervised modes:\n%s", out.String())
	}
	for _, name := range []string{"config.json", "journal.bin", "metrics.json", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	// Without -instance the run would fall back to the default
	// instance and ignore the document; it fails naming what the
	// document registered instead.
	err := run([]string{"-synth", synthFile}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"synth-hostile"`) {
		t.Errorf("-synth without -instance: got %v, want an error naming synth-hostile", err)
	}
}

// TestRunSynthErrors: a missing or invalid document fails the run up
// front, before any campaign work.
func TestRunSynthErrors(t *testing.T) {
	if err := run([]string{"-synth", filepath.Join(t.TempDir(), "nope.yaml"), "-list"}, io.Discard); err == nil {
		t.Error("missing -synth file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-synth", bad, "-list"}, io.Discard); err == nil {
		t.Error("invalid -synth file accepted")
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-instance", "warp9"},
		{"-instance", "reduced", "-tier", "nightly"},
		{"-instance", "reduced", "-tier", "quick", "-table", "9"},
		{"-instance", "reduced", "-tier", "quick", "-adaptive", "sometimes"},
		{"-config", "/no/such/file.json"},
		{"-synth", "/no/such/topology.yaml"},
	}
	for _, args := range tests {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

// TestRunInstanceErrors: an unknown instance or tier is refused even
// with a -dir to write to, and leaves no journal behind.
func TestRunInstanceErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-instance", "warpdrive"},
		{"-instance", "reduced", "-tier", "nightly"},
	} {
		dir := t.TempDir()
		if err := run(append(args, "-dir", dir), io.Discard); err == nil {
			t.Errorf("run(%v -dir) accepted invalid arguments", args)
		}
		if _, err := os.Stat(runner.JournalPath(dir)); err == nil {
			t.Errorf("run(%v -dir) left a journal", args)
		}
	}
}

// TestRunRefusesIgnoredFlags: each mode refuses a flag it would
// otherwise silently ignore, before any campaign work.
func TestRunRefusesIgnoredFlags(t *testing.T) {
	cfgPath := filepath.Join(t.TempDir(), "exp.json") // refused before it is read
	for _, tc := range []struct {
		mode, flag string
		args       []string
	}{
		{"-list", "tier", []string{"-list", "-tier", "quick"}},
		{"-list", "dir", []string{"-list", "-dir", t.TempDir()}},
		{"-config", "instance", []string{"-config", cfgPath, "-instance", "paper"}},
		{"-config", "tier", []string{"-config", cfgPath, "-tier", "quick"}},
		{"-config", "synth", []string{"-config", cfgPath, "-synth", cfgPath}},
		{"-config", "mass", []string{"-config", cfgPath, "-mass", "9000"}},
		{"-matrix", "uniform", []string{"-matrix", cfgPath, "-uniform"}},
		{"-matrix", "dir", []string{"-matrix", cfgPath, "-dir", t.TempDir()}},
		{"-trajectory", "tier", []string{"-trajectory", "-tier", "quick"}},
		{"-trajectory", "table", []string{"-trajectory", "-table", "2"}},
		{"-trace", "workers", []string{"-trace", cfgPath, "-workers", "2"}},
		{"-trace", "horizon", []string{"-trace", cfgPath, "-horizon", "100"}},
		{"-instance", "mass", []string{"-mass", "9000"}},
		{"-instance", "velocity", []string{"-velocity", "70"}},
		{"-instance", "horizon", []string{"-horizon", "1000"}},
		{"-instance", "dual", []string{"-dual"}},
		{"-instance", "record", []string{"-record", cfgPath}},
		{"-instance", "diff", []string{"-diff", cfgPath}},
		{"-instance", "topology", []string{"-topology", cfgPath}},
	} {
		t.Run(tc.mode+"/"+tc.flag, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if want := "-" + tc.flag + " does not apply to " + tc.mode; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("run(%v) = %v, want %q", tc.args, err, want)
			}
		})
	}
}

// runOut runs propane and returns its output, failing the test on an
// error.
func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return out.String()
}

func TestRunTrajectory(t *testing.T) {
	got := runOut(t, "-trajectory", "-mass", "12000", "-velocity", "55", "-horizon", "1000")
	for _, want := range []string{
		"arrestment of m=12000kg v=55m/s\n",
		"     250    54.48     13.7      109   0      9024     10970   0.080 false false\n",
		"    1000    45.92     51.8      414   1     18424     20032   0.327 false false\n",
		"\nfinal: v=45.92 m/s after 51.8 m (hardware pulses: 414)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("trajectory misses %q:\n%s", want, got)
		}
	}
	if rows := strings.Count(got, " false false\n"); rows != 4 {
		t.Errorf("%d rows over 1000 ms, want one per 250 ms:\n%s", rows, got)
	}
}

func TestRunTrajectoryErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-horizon", "0"},
		{"-horizon", "-5"},
		{"-mass", "0"},
		{"-velocity", "-1"},
		{"-horizon", "100", "-record", filepath.Join(t.TempDir(), "no", "such", "dir.ptrc")},
	} {
		if err := run(append([]string{"-trajectory"}, args...), io.Discard); err == nil {
			t.Errorf("run(-trajectory %v) succeeded, want error", args)
		}
	}
}

// TestRunTraceRoundTrip records golden runs with -trajectory -record,
// summarises one with -trace and compares them with -diff.
func TestRunTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	golden, other := filepath.Join(dir, "golden.ptrc"), filepath.Join(dir, "other.ptrc")
	got := runOut(t, "-trajectory", "-horizon", "1000", "-record", golden)
	if want := "recorded 14 signals × 1000 samples (28126 bytes) to " + golden; !strings.Contains(got, want) {
		t.Errorf("record misses %q:\n%s", want, got)
	}
	got = runOut(t, "-trace", golden)
	for _, want := range []string{
		golden + ": 14 signals × 1000 samples\n",
		"  ADC            min=    0 max=24576 final=23552\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-trace misses %q:\n%s", want, got)
		}
	}
	// Identical parameters produce an identical trace.
	runOut(t, "-trajectory", "-horizon", "1000", "-record", other)
	if got := runOut(t, "-trace", golden, "-diff", other); got != "traces are identical\n" {
		t.Errorf("-diff of identical runs:\n%s", got)
	}
	// A different test case deviates.
	runOut(t, "-trajectory", "-horizon", "1000", "-mass", "9000", "-record", other)
	got = runOut(t, "-trace", golden, "-diff", other)
	if !strings.HasSuffix(got, "\n9 of 14 signals deviated\n") || !strings.HasPrefix(got, "ADC ") {
		t.Errorf("-diff of a 9000 kg run:\n%s", got)
	}
	// The master/slave deployment records its slave chain too.
	got = runOut(t, "-trajectory", "-horizon", "500", "-dual", "-record", filepath.Join(dir, "dual.ptrc"))
	if !strings.Contains(got, "recorded 20 signals × 500 samples") {
		t.Errorf("dual record:\n%s", got)
	}
}

func TestRunTraceErrors(t *testing.T) {
	dir := t.TempDir()
	golden := filepath.Join(dir, "golden.ptrc")
	runOut(t, "-trajectory", "-horizon", "100", "-record", golden)
	// One signal "x" declared with zero samples: 17 bytes.
	zero := filepath.Join(dir, "zero.ptrc")
	if err := os.WriteFile(zero, []byte("PTRC\x01\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-trace", filepath.Join(dir, "nope.ptrc")}, "no such file"},
		{[]string{"-trace", golden, "-diff", filepath.Join(dir, "nope.ptrc")}, "no such file"},
		{[]string{"-trace", zero}, "no samples"},
		{[]string{"-trace", golden, "-diff", zero}, "no samples"},
		{[]string{"-diff", golden}, "-diff does not apply to -instance"},
	} {
		if err := run(tc.args, io.Discard); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// exampleFiles writes the paper's Fig. 2 example system and its ten
// sample permeabilities (those of examples/quickstart) as -topology
// and -matrix files.
func exampleFiles(t *testing.T) (topoPath, csvPath string) {
	t.Helper()
	dir := t.TempDir()
	topo, err := model.PaperExampleSystem().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	topoPath, csvPath = filepath.Join(dir, "sys.json"), filepath.Join(dir, "perms.csv")
	if err := os.WriteFile(topoPath, topo, 0o644); err != nil {
		t.Fatal(err)
	}
	rows := "module,in,out,value\nA,1,1,0.8\nB,1,1,0.5\nB,1,2,0.6\nB,2,1,0.9\nB,2,2,0.3\n" +
		"C,1,1,0.7\nD,1,1,0.4\nE,1,1,0.9\nE,2,1,0.5\nE,3,1,0.2\n"
	if err := os.WriteFile(csvPath, []byte(rows), 0o644); err != nil {
		t.Fatal(err)
	}
	return topoPath, csvPath
}

// TestRunMatrixExample loads the ten sample values of examples/quickstart
// and prints every analysis section that needs no campaign.
func TestRunMatrixExample(t *testing.T) {
	topoPath, csvPath := exampleFiles(t)
	dotDir := t.TempDir()
	got := runOut(t, "-matrix", csvPath, "-topology", topoPath, "-advice", "-sensitivity",
		"-criticality", "-trees", "-dot", dotDir)
	for _, want := range []string{
		"Table 2: estimated relative permeability and error exposure of the modules\n",
		"Table 3: estimated signal error exposures\n",
		"Table 4: propagation paths for system output sysout",
		"EDM/ERM placement advice (Section 5 rules)\n",
		"figures written to " + dotDir,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-matrix output misses %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "Table 1") {
		t.Errorf("-matrix printed Table 1, which needs a campaign:\n%s", got)
	}
	// -dot's matrix.csv and topology.json read back to the same tables.
	again := runOut(t, "-matrix", filepath.Join(dotDir, "matrix.csv"), "-topology", filepath.Join(dotDir, "topology.json"),
		"-advice", "-sensitivity", "-criticality", "-trees")
	if want := got[:strings.Index(got, "figures written")]; again != want {
		t.Errorf("-dot files read back differ:\n%s\nwant:\n%s", again, want)
	}
}

// TestRunMatrixFromFiles: header-less module,in,out,value rows load,
// and pairs the file does not name stay at zero.
func TestRunMatrixFromFiles(t *testing.T) {
	topoPath, _ := exampleFiles(t)
	minPath := filepath.Join(t.TempDir(), "min.csv")
	if err := os.WriteFile(minPath, []byte("A,1,1,0.5\nB,1,2,0.25\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	got := runOut(t, "-matrix", minPath, "-topology", topoPath, "-table", "2")
	if !strings.HasPrefix(got, "Table 2:") {
		t.Errorf("-matrix -table 2 output:\n%s", got)
	}
	m, err := loadMatrix(topoPath, minPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"A,1,1": 0.5, "B,1,2": 0.25}
	for _, pv := range m.Pairs() {
		key := fmt.Sprintf("%s,%d,%d", pv.Pair.Module, pv.Pair.In, pv.Pair.Out)
		if pv.Value != want[key] {
			t.Errorf("pair %s loaded as %v, want %v", key, pv.Value, want[key])
		}
	}
}

// TestRunMatrixRoundTrip: a campaign's -dot files loaded with -matrix
// and -topology print the campaign's Tables 2-4 byte for byte, and
// hold its exact estimates (autobrake's are not 6-decimal round).
func TestRunMatrixRoundTrip(t *testing.T) {
	for _, instance := range []string{"reduced", "autobrake"} {
		t.Run(instance, func(t *testing.T) {
			dir := t.TempDir()
			matrixCSV, topology := filepath.Join(dir, "matrix.csv"), filepath.Join(dir, "topology.json")
			campaignOut := runOut(t, "-instance", instance, "-tier", "quick", "-dot", dir)
			start, end := strings.Index(campaignOut, "Table 2:"), strings.Index(campaignOut, "figures written")
			if start < 0 || end < start {
				t.Fatalf("campaign output has no Tables 2-4:\n%s", campaignOut)
			}
			got := runOut(t, "-matrix", matrixCSV, "-topology", topology)
			if want := campaignOut[start:end]; got != want {
				t.Errorf("-matrix tables differ from the campaign's:\n%s\nwant:\n%s", got, want)
			}
			for _, table := range []string{"2", "3", "4"} {
				one := runOut(t, "-matrix", matrixCSV, "-topology", topology, "-table", table)
				if !strings.HasPrefix(one, "Table "+table+":") || !strings.Contains(got, one) {
					t.Errorf("-table %s:\n%s", table, one)
				}
			}
			loaded, err := loadMatrix(topology, matrixCSV)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := runner.RunInstance(instance, runner.TierQuick, runner.Options{Dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			want := ref.Result.Matrix.Pairs()
			for i, pv := range loaded.Pairs() {
				if pv != want[i] {
					t.Errorf("pair %d loaded as %+v, campaign estimated %+v", i, pv, want[i])
				}
			}
		})
	}
}

func TestRunMatrixErrors(t *testing.T) {
	topoPath, csvPath := exampleFiles(t)
	badCSV := filepath.Join(t.TempDir(), "bad.csv")
	for name, args := range map[string][]string{
		"missing matrix":   {"-topology", topoPath},
		"missing topology": {"-matrix", csvPath},
		"bad topo path":    {"-topology", "/no/such.json", "-matrix", csvPath},
		"table 1":          {"-topology", topoPath, "-matrix", csvPath, "-table", "1"},
	} {
		t.Run(name, func(t *testing.T) {
			if err := run(args, io.Discard); err == nil {
				t.Error("run succeeded, want error")
			}
		})
	}
	for name, contents := range map[string]string{
		"short row": "A,1\n",
		"bad in":    "A,x,1,0.5\n",
		"bad out":   "A,1,x,0.5\n",
		"bad value": "A,1,1,zz\n",
		"bad pair":  "A,9,9,0.5\n",
		"nan value": "A,1,1,x,y,NaN\n",
	} {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(badCSV, []byte(contents), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := run([]string{"-topology", topoPath, "-matrix", badCSV}, io.Discard); err == nil {
				t.Error("run accepted malformed csv")
			}
		})
	}
}

// TestRunFMECAAndProfile: -fmeca and -prob apply to a loaded matrix
// and to a campaign's.
func TestRunFMECAAndProfile(t *testing.T) {
	topoPath, csvPath := exampleFiles(t)
	got := runOut(t, "-matrix", csvPath, "-topology", topoPath, "-table", "2", "-fmeca", "-prob", "extA=0.1,extC=0.02,extE=0.5")
	for _, want := range []string{
		"FMECA complement: failure modes ordered by analysis criticality\n",
		"Adjusted propagation probabilities P' for sysout",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output misses %q:\n%s", want, got)
		}
	}
	for _, bad := range []string{"extA", "extA=x", "ghost=0.1", "extA=1.5", "extA=NaN"} {
		if err := run([]string{"-matrix", csvPath, "-topology", topoPath, "-prob", bad}, io.Discard); err == nil {
			t.Errorf("run with -prob %q succeeded, want error", bad)
		}
	}
	got = runOut(t, "-instance", "reduced", "-tier", "quick", "-table", "2", "-fmeca", "-prob", "ADC=0.1,PACNT=0.02")
	for _, want := range []string{"FMECA complement", "Adjusted propagation probabilities P' for TOC2"} {
		if !strings.Contains(got, want) {
			t.Errorf("campaign output misses %q:\n%s", want, got)
		}
	}
}
