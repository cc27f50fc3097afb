package runner

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"propane/internal/campaign"
	"propane/internal/report"
)

func TestRegistryBuildsEveryInstance(t *testing.T) {
	defs := Instances()
	if len(defs) < 6 {
		t.Fatalf("registry has %d instances, want at least 6", len(defs))
	}
	for _, def := range defs {
		for _, tier := range Tiers() {
			cfg, err := def.Config(tier)
			if err != nil {
				t.Errorf("%s/%s: %v", def.Name, tier, err)
				continue
			}
			if err := cfg.Validate(); err != nil {
				t.Errorf("%s/%s invalid: %v", def.Name, tier, err)
			}
			// The digestable snapshot must build for every instance,
			// and identically twice (journals depend on it).
			plan, err := cfg.Plan()
			if err != nil {
				t.Errorf("%s/%s plan: %v", def.Name, tier, err)
				continue
			}
			s1, err := newSnapshot(def.Name, tier, cfg, len(plan), nil)
			if err != nil {
				t.Errorf("%s/%s snapshot: %v", def.Name, tier, err)
				continue
			}
			cfg2, _ := def.Config(tier)
			s2, _ := newSnapshot(def.Name, tier, cfg2, len(plan), nil)
			if s1.Digest != s2.Digest {
				t.Errorf("%s/%s: config digest not deterministic", def.Name, tier)
			}
		}
	}
	if _, err := Lookup("no-such-instance"); err == nil {
		t.Error("Lookup accepted an unknown instance")
	}
}

func TestRunWritesArtifactSet(t *testing.T) {
	dir := t.TempDir()
	var logged []string
	rr, err := RunInstance("reduced", TierQuick, Options{
		Dir:  dir,
		Logf: func(format string, args ...any) { logged = append(logged, format) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || rr.Result.Runs == 0 {
		t.Fatal("no runs executed")
	}
	for _, name := range []string{"config.json", "journal.jsonl", "metrics.json", "failures.md", "report.md"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing artifact %s: %v", name, err)
		}
	}

	var snap snapshot
	data, err := os.ReadFile(filepath.Join(dir, "config.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Instance != "reduced" || snap.Tier != "quick" || snap.Digest == "" {
		t.Errorf("snapshot incomplete: %+v", snap)
	}
	if len(snap.GoldenDigests) != len(snap.Cases) {
		t.Errorf("%d golden digests for %d cases", len(snap.GoldenDigests), len(snap.Cases))
	}
	if snap.TotalRuns != rr.Result.Runs {
		t.Errorf("snapshot plans %d runs, result has %d", snap.TotalRuns, rr.Result.Runs)
	}

	m := rr.Metrics
	if m.ExecutedRuns != rr.Result.Runs || m.ReplayedRuns != 0 {
		t.Errorf("metrics runs: executed %d replayed %d, want %d/0", m.ExecutedRuns, m.ReplayedRuns, rr.Result.Runs)
	}
	if m.Unfired != rr.Result.Unfired {
		t.Errorf("metrics unfired %d, result %d", m.Unfired, rr.Result.Unfired)
	}
	if m.RunsPerSecond <= 0 || m.Workers <= 0 {
		t.Errorf("throughput metrics missing: %+v", m)
	}
	totalInj := 0
	for _, c := range m.Modules {
		totalInj += c.Injections
	}
	if want := rr.Result.Runs - rr.Result.Unfired; totalInj != want {
		t.Errorf("module injection counters sum to %d, want %d", totalInj, want)
	}
	if m.UniqueFailures != len(rr.Failures) {
		t.Errorf("unique failures %d != catalog size %d", m.UniqueFailures, len(rr.Failures))
	}
	if len(rr.Failures) == 0 {
		t.Error("campaign produced no failure classes — dedupe broken or campaign inert")
	}
	dedupes := false
	for _, f := range rr.Failures {
		if f.Count > 1 {
			dedupes = true
			break
		}
	}
	if !dedupes {
		t.Error("no failure class has Count > 1 — fingerprinting too fine")
	}

	// A second run into the same directory without Resume must refuse.
	if _, err := RunInstance("reduced", TierQuick, Options{Dir: dir}); err == nil {
		t.Error("re-run without Resume accepted an existing journal")
	}
	// A different campaign must refuse the directory outright.
	if _, err := RunInstance("paper", TierQuick, Options{Dir: dir, Resume: true}); err == nil {
		t.Error("different campaign accepted a foreign artifact directory")
	}
}

func TestRunPropagatesConfigSentinel(t *testing.T) {
	var cfg campaign.Config // hollow: no cases, no times, no bits
	_, err := Run(cfg, Options{Dir: t.TempDir()})
	if !errors.Is(err, campaign.ErrInvalidConfig) {
		t.Errorf("error %v does not wrap campaign.ErrInvalidConfig", err)
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := RunInstance("reduced", TierQuick, Options{}); err == nil {
		t.Error("accepted empty artifact dir")
	}
	for _, jobs := range [][]int{{3, 1}, {2, 2}, {-1}, {1 << 30}} {
		if _, err := RunInstance("reduced", TierQuick, Options{Dir: t.TempDir(), Jobs: jobs}); err == nil {
			t.Errorf("accepted Jobs %v", jobs)
		}
	}
	if _, err := RunInstance("reduced", "nightly", Options{Dir: t.TempDir()}); err == nil {
		t.Error("accepted unknown tier")
	}
}

func TestFailureTableRenders(t *testing.T) {
	rr, err := RunInstance("reduced", TierQuick, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	table := report.FailureTable(rr.Failures)
	if !strings.Contains(table, "equivalence classes") {
		t.Errorf("unexpected failure table:\n%s", table)
	}
	for _, f := range rr.Failures[:1] {
		if !strings.Contains(table, f.Module) {
			t.Errorf("table misses module %s", f.Module)
		}
	}
}
