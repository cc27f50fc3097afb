package distrib

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"propane/internal/campaign"
	"propane/internal/runner"
)

// runFleet serves coord to a fleet of two workers until the campaign
// completes. The workers' scratch lives under scratch, outside the
// coordinator's directory.
func runFleet(t *testing.T, coord *Coordinator, scratch string) {
	t.Helper()
	url, srv := serveCoordinator(t, coord)
	defer srv.Close()
	errs := make(chan error, 2)
	for _, name := range []string{"a1", "a2"} {
		go func() {
			errs <- RunWorker(url, WorkerOptions{
				Name: name, Dir: filepath.Join(scratch, name),
				BatchSize: 16, PollInterval: 50 * time.Millisecond, Logf: t.Logf,
			})
		}()
	}
	select {
	case <-coord.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("campaign did not complete")
	}
	for range 2 {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// copyDir copies the regular files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// countersOf reads metrics.json without its wall-clock fields and
// without the executed/replayed split, which records where the runs
// came from: workers for a live assembly, the journal for a resumed
// one.
func countersOf(t *testing.T, dir string) map[string]any {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"elapsed_seconds", "runs_per_second", "eta_seconds", "mean_run_ms", "worker_utilization",
		"executed_runs", "replayed_runs"} {
		delete(m, k)
	}
	return m
}

// TestAssembleLiveMatchesResumed: a coordinator assembles from the
// records and planner it holds; a coordinator resumed on a copy of the
// directory rebuilds both from the journal. The two assemblies must be
// indistinguishable — the same Result down to unexported fields and
// the same artifacts — for a fixed-matrix and an adaptive campaign.
// Assembling before the campaign is done fails with the
// missing-runs or incomplete-schedule error and keeps the prepared
// campaign, so the later assembly still succeeds.
func TestAssembleLiveMatchesResumed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"reduced fixed matrix", Config{Instance: "reduced", Tier: runner.TierQuick}},
		{"paper adaptive", Config{Instance: "paper", Tier: runner.TierQuick, Adaptive: campaign.AdaptiveForce}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := tc.cfg
			cc.Dir = t.TempDir()
			cc.Logf = t.Logf
			coord, err := NewCoordinator(cc)
			if err != nil {
				t.Fatal(err)
			}
			defer coord.Close()
			_, err = coord.Assemble()
			if adaptive := cc.Adaptive == campaign.AdaptiveForce; adaptive && !errors.Is(err, runner.ErrScheduleIncomplete) {
				t.Fatalf("Assemble before Done: %v, want ErrScheduleIncomplete", err)
			} else if missing := fmt.Sprintf("of %d runs", coord.Info().TotalRuns); !adaptive && (err == nil || !strings.Contains(err.Error(), missing)) {
				t.Fatalf("Assemble before Done: %v, want an error naming %q", err, missing)
			}
			runFleet(t, coord, t.TempDir())
			live, err := coord.Assemble()
			if err != nil {
				t.Fatal(err)
			}

			cold := cc
			cold.Dir = copyDir(t, cc.Dir)
			cold.Resume = true
			resumed, err := NewCoordinator(cold)
			if err != nil {
				t.Fatal(err)
			}
			defer resumed.Close()
			select {
			case <-resumed.Done():
			default:
				t.Fatal("coordinator resumed on a finished campaign is not done")
			}
			// The resumed assembly rewrites every artifact in the copy.
			for _, name := range []string{"report.md", "failures.md", "config.json", "metrics.json"} {
				if err := os.Remove(filepath.Join(cold.Dir, name)); err != nil {
					t.Fatal(err)
				}
			}
			coldRR, err := resumed.Assemble()
			if err != nil {
				t.Fatal(err)
			}
			runs := coord.Metrics().DoneRuns
			if m := live.Metrics; m.ExecutedRuns != runs || m.ReplayedRuns != 0 {
				t.Errorf("live assembly counts %d executed, %d replayed runs, want %d/0", m.ExecutedRuns, m.ReplayedRuns, runs)
			}
			if m := coldRR.Metrics; m.ExecutedRuns != 0 || m.ReplayedRuns != runs {
				t.Errorf("resumed assembly counts %d executed, %d replayed runs, want 0/%d", m.ExecutedRuns, m.ReplayedRuns, runs)
			}

			if !reflect.DeepEqual(live.Result, coldRR.Result) {
				t.Error("live and resumed assemblies produced different Results")
			}
			if (live.Result.Adaptive != nil) != (cc.Adaptive == campaign.AdaptiveForce) {
				t.Errorf("Result.Adaptive = %+v for adaptive mode %v", live.Result.Adaptive, cc.Adaptive)
			}
			for _, name := range []string{"report.md", "failures.md", "config.json"} {
				a, errA := os.ReadFile(filepath.Join(cc.Dir, name))
				b, errB := os.ReadFile(filepath.Join(cold.Dir, name))
				if err := errors.Join(errA, errB); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Errorf("%s differs between the live and the resumed assembly", name)
				}
			}
			if a, b := countersOf(t, cc.Dir), countersOf(t, cold.Dir); !reflect.DeepEqual(a, b) {
				t.Errorf("metrics.json counters differ:\nlive    %v\nresumed %v", a, b)
			}
		})
	}
}

// TestAssembleReadsNoJournal: once the campaign is done, the
// coordinator assembles from what it holds. With the journal moved
// out of the directory the assembly still reproduces the single-node
// adaptive run.
func TestAssembleReadsNoJournal(t *testing.T) {
	dir := t.TempDir()
	coord, err := NewCoordinator(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Adaptive: campaign.AdaptiveForce,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	runFleet(t, coord, t.TempDir())

	journal, aside := runner.JournalPath(dir), filepath.Join(t.TempDir(), "journal.bin")
	if err := os.Rename(journal, aside); err != nil {
		t.Fatal(err)
	}
	rr, err := coord.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// The baseline check reads the journal's record set; put it back.
	if err := os.Rename(aside, journal); err != nil {
		t.Fatal(err)
	}
	assertMatchesAdaptiveBaseline(t, rr, dir)
}
