package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunTinyEndToEnd(t *testing.T) {
	dotDir := t.TempDir()
	reportPath := filepath.Join(dotDir, "report.md")
	err := run([]string{
		"-scale", "tiny", "-table", "2", "-uniform", "-advice",
		"-latency", "-sensitivity", "-criticality", "-validate", "-trees",
		"-dot", dotDir, "-report", reportPath,
	})
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
	if err := run([]string{"-config", cfgPath, "-table", "4"}); err != nil {
		t.Fatalf("run with config: %v", err)
	}
}

func TestRunSynthDocument(t *testing.T) {
	doc := filepath.Join("..", "..", "examples", "synth", "hostile.yaml")
	reportPath := filepath.Join(t.TempDir(), "report.md")
	if err := run([]string{"-synth", doc, "-table", "1", "-report", reportPath}); err != nil {
		t.Fatalf("run with -synth: %v", err)
	}
	if md, err := os.ReadFile(reportPath); err != nil || len(md) == 0 {
		t.Errorf("markdown report missing: %v", err)
	}
	// An undeclared tier in the document is a flag error, not a panic.
	if err := run([]string{"-synth", doc, "-synth-tier", "nightly"}); err == nil {
		t.Error("undeclared -synth-tier accepted")
	}
}

func TestRunErrors(t *testing.T) {
	tests := [][]string{
		{"-scale", "warp9"},
		{"-scale", "tiny", "-table", "9"},
		{"-config", "/no/such/file.json"},
		{"-synth", "/no/such/topology.yaml"},
	}
	for _, args := range tests {
		if err := run(args); err == nil {
			t.Errorf("run(%v) succeeded, want error", args)
		}
	}
}

func TestRunWithArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-scale", "tiny", "-table", "1", "-artifacts", dir}); err != nil {
		t.Fatalf("run with -artifacts: %v", err)
	}
	for _, name := range []string{"config.json", "journal.bin", "metrics.json", "failures.md", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	// The journal makes the campaign resumable; a second run without
	// -resume must refuse, with -resume it replays.
	if err := run([]string{"-scale", "tiny", "-table", "1", "-artifacts", dir}); err == nil {
		t.Error("re-run without -resume accepted an existing journal")
	}
	if err := run([]string{"-scale", "tiny", "-table", "1", "-artifacts", dir, "-resume"}); err != nil {
		t.Errorf("resume of complete campaign: %v", err)
	}
	// -resume without -artifacts has no journal to resume from.
	if err := run([]string{"-scale", "tiny", "-resume"}); err == nil {
		t.Error("-resume without -artifacts accepted")
	}
}

func TestConfigForScale(t *testing.T) {
	for _, scale := range []string{"tiny", "reduced", "paper"} {
		cfg, err := configForScale(scale)
		if err != nil {
			t.Errorf("configForScale(%s): %v", scale, err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("scale %s invalid: %v", scale, err)
		}
	}
	if _, err := configForScale("bogus"); err == nil {
		t.Error("bogus scale accepted")
	}
}
