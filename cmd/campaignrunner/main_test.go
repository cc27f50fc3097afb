package main

import (
	"net"
	"net/http"

	"os"
	"path/filepath"
	"strings"
	"testing"

	"propane/internal/distrib"
	"propane/internal/runner"
)

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

func TestRunReducedQuick(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-instance", "reduced", "-dir", dir, "-progress", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"config.json", "journal.jsonl", "metrics.json", "failures.md", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "campaign reduced/quick") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	// Re-running without -resume must refuse; with -resume it is a
	// no-op replay.
	if err := run([]string{"-instance", "reduced", "-dir", dir}, &out); err == nil {
		t.Error("re-run without -resume accepted an existing journal")
	}
	out.Reset()
	if err := run([]string{"-instance", "reduced", "-dir", dir, "-resume", "-progress", "0"}, &out); err != nil {
		t.Fatalf("resume of a complete campaign: %v", err)
	}
	if !strings.Contains(out.String(), "0 executed") {
		t.Errorf("complete campaign re-executed runs:\n%s", out.String())
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	tests := [][]string{
		{}, // no instance
		{"-instance", "warpdrive", "-dir", t.TempDir()},
		{"-instance", "reduced"}, // no dir
		{"-instance", "reduced", "-tier", "nightly", "-dir", t.TempDir()},
	}
	for _, args := range tests {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted invalid arguments", args)
		}
	}
}

func TestRunHostileQuickReportsSupervisedModes(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-instance", "hostile", "-dir", dir, "-progress", "0",
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

// TestRunWorkerMode joins a live coordinator as a fleet worker and
// processes the whole campaign through the CLI entry point.
func TestRunWorkerMode(t *testing.T) {
	dir := t.TempDir()
	coord, err := distrib.NewCoordinator(distrib.Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      filepath.Join(dir, "coord"),
		Units:    2,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: coord.Handler()}
	go srv.Serve(l)
	defer srv.Close()

	var out strings.Builder
	args := []string{"-worker", "http://" + l.Addr().String(),
		"-dir", filepath.Join(dir, "scratch"), "-worker-name", "cli-w1", "-progress", "0"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("worker exited but the campaign is not complete")
	}
	if _, err := coord.Assemble(); err != nil {
		t.Fatal(err)
	}

	// -worker without a scratch root must refuse.
	if err := run([]string{"-worker", "http://127.0.0.1:1"}, &out); err == nil {
		t.Error("-worker without -dir accepted")
	}
}

// TestRunSynthInstance compiles a declarative topology document from
// the CLI, registers it, and journals its quick campaign exactly like
// a built-in instance.
func TestRunSynthInstance(t *testing.T) {
	dir := t.TempDir()
	synthFile := filepath.Join("..", "..", "examples", "synth", "hostile.yaml")
	var out strings.Builder
	args := []string{"-synth", synthFile, "-instance", "synth-hostile",
		"-dir", dir, "-progress", "0"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { runner.Unregister("synth-hostile") })
	if !strings.Contains(out.String(), `registered instance "synth-hostile"`) {
		t.Errorf("registration line missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "campaign synth-hostile/quick") {
		t.Errorf("summary missing:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "supervised failure modes:") {
		t.Errorf("compiled mines/tarpits produced no supervised modes:\n%s", out.String())
	}
	for _, name := range []string{"config.json", "journal.jsonl", "metrics.json", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
}

// TestRunSynthErrors: a missing or invalid document fails the run up
// front, before any campaign work.
func TestRunSynthErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-synth", filepath.Join(t.TempDir(), "nope.yaml"), "-list"}, &out); err == nil {
		t.Error("missing -synth file accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.yaml")
	if err := os.WriteFile(bad, []byte("name: broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-synth", bad, "-list"}, &out); err == nil {
		t.Error("invalid -synth file accepted")
	}
}

// TestRunFuzzTopologies drives the generator sweep through the CLI.
func TestRunFuzzTopologies(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-fuzz-topologies", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5 topologies, zero engine panics") {
		t.Errorf("fuzz summary missing:\n%s", out.String())
	}
}
