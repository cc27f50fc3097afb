package main

import (
	"encoding/json"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"propane/internal/distrib"
	"propane/internal/runner"
)

// TestLoopbackCampaign drives the full distributed path through the
// CLI: coordinator plus two in-process workers over real HTTP, then
// assembly into the standard artifact set.
func TestLoopbackCampaign(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	args := []string{"-instance", "reduced", "-dir", dir, "-units", "4", "-loopback", "2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	for _, name := range []string{"config.json", "journal.bin", "metrics.json", "failures.md", "report.md", "assignments.bin"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}
	if !strings.Contains(out.String(), "campaign reduced/quick assembled") {
		t.Errorf("summary missing:\n%s", out.String())
	}
}

// TestLoopbackMetricsCarryTiming proves an assembled campaign times
// its runs as a single-node one does: elapsed time from the
// coordinator's start, runs/s over it, and the wall time of the
// acknowledged units behind the mean run time.
func TestLoopbackMetricsCarryTiming(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run([]string{"-instance", "reduced", "-tier", "quick", "-dir", dir, "-loopback", "2"}, &out); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, out.String())
	}
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m runner.Metrics
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.ExecutedRuns != m.TotalRuns || m.ElapsedSeconds <= 0 || m.RunsPerSecond <= 0 || m.MeanRunMs <= 0 {
		t.Errorf("assembled metrics carry no timing: executed %d of %d, elapsed %gs, %g runs/s, mean run %g ms",
			m.ExecutedRuns, m.TotalRuns, m.ElapsedSeconds, m.RunsPerSecond, m.MeanRunMs)
	}
}

func TestNoInstance(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil {
		t.Fatal("propaned ran without -instance")
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
		"-dir", filepath.Join(dir, "scratch"), "-worker-name", "cli-w1"}
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

// TestRunRefusesIgnoredFlags: each mode refuses a flag it would
// otherwise silently ignore, before it listens, connects or runs
// anything.
func TestRunRefusesIgnoredFlags(t *testing.T) {
	const coord = "a network coordinator"
	worker := []string{"-worker", "http://127.0.0.1:1", "-dir", t.TempDir()}
	for _, tc := range []struct {
		mode, flag string
		args       []string
	}{
		{coord, "workers", []string{"-instance", "reduced", "-workers", "2"}},
		{coord, "chaos", []string{"-instance", "reduced", "-chaos", "seed=7,rate=0.2"}},
		{coord, "store-dir", []string{"-instance", "reduced", "-store-dir", t.TempDir()}},
		{coord, "gc-interval", []string{"-instance", "reduced", "-gc-interval", "1m"}},
		{coord, "quota-queued", []string{"-instance", "reduced", "-quota-queued", "1"}},
		{coord, "quota-active", []string{"-instance", "reduced", "-quota-active", "1"}},
		{coord, "quota-jobs", []string{"-instance", "reduced", "-quota-jobs", "1"}},
		{coord, "worker-name", []string{"-instance", "reduced", "-worker-name", "w"}},
		{"-loopback", "listen", []string{"-instance", "reduced", "-loopback", "2", "-listen", "127.0.0.1:0"}},
		{"-loopback", "store-dir", []string{"-instance", "reduced", "-loopback", "2", "-store-dir", t.TempDir()}},
		{"-serve", "workers", []string{"-serve", "-workers", "2"}},
		{"-serve", "chaos", []string{"-serve", "-chaos", "seed=7,rate=0.2"}},
		{"-serve", "tier", []string{"-serve", "-tier", "full"}},
		{"-worker", "units", append(worker, "-units", "4")},
		{"-worker", "lease", append(worker, "-lease", "1s")},
		{"-worker", "listen", append(worker, "-listen", "127.0.0.1:0")},
		{"-worker", "instance", append(worker, "-instance", "reduced")},
		{"-worker", "resume", append(worker, "-resume")},
		{"-worker", "loopback", append(worker, "-loopback", "2")},
		{"-worker", "serve", append(worker, "-serve")},
	} {
		t.Run(strings.TrimPrefix(tc.mode, "-")+"/"+tc.flag, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if want := "-" + tc.flag + " does not apply to " + tc.mode; err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("run(%v) = %v, want %q", tc.args, err, want)
			}
		})
	}
}
