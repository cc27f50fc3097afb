package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

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
		"fig12_trace_PACNT.dot", "matrix.csv",
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
	} {
		t.Run(tc.mode+"/"+tc.flag, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if want := "-" + tc.flag + " does not apply to " + tc.mode; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("run(%v) = %v, want %q", tc.args, err, want)
			}
		})
	}
}
