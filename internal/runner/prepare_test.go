package runner

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"

	"propane/internal/campaign"
	"propane/internal/physics"
	"propane/internal/sim"
)

// TestPrepareRecordsOneGoldenPass: a Prepared records its golden runs
// once, and every Run of it reuses them. The target counts the
// instances it builds; runs with an empty job list build none of
// their own, so every instance is a golden one.
func TestPrepareRecordsOneGoldenPass(t *testing.T) {
	cfg := reducedQuickConfig(t)
	inner := cfg
	var built atomic.Int64
	cfg.Custom = &campaign.Target{
		Name:     "counting",
		Topology: inner.System,
		New: func(tc physics.TestCase, hook sim.ReadHook) (campaign.RunnableInstance, error) {
			built.Add(1)
			return inner.NewInstance(tc, hook)
		},
	}
	p, err := Prepare(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := p.Run(Options{Dir: t.TempDir(), Jobs: []int{}, SkipReport: true}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := built.Load(), int64(len(cfg.TestCases)); got != want {
		t.Errorf("Prepare and two runs built %d instances, want %d (one golden run per test case)", got, want)
	}
}

// TestPrepareResolvesNegativeWorkers: campaign.Config documents
// Workers <= 0 as GOMAXPROCS, and the metrics must report the pool
// that actually ran.
func TestPrepareResolvesNegativeWorkers(t *testing.T) {
	cfg := reducedQuickConfig(t)
	cfg.Workers = -1
	rr, err := Run(cfg, Options{Dir: t.TempDir(), SkipReport: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rr.Metrics.Workers, runtime.GOMAXPROCS(0); got != want {
		t.Errorf("Metrics.Workers = %d, want GOMAXPROCS = %d", got, want)
	}
	if rr.Metrics.WorkerUtilization <= 0 {
		t.Errorf("worker utilization = %v, want > 0", rr.Metrics.WorkerUtilization)
	}
}

// TestPrepareAssembleBuildsNoCheckpoint: a coordinator prepares its
// campaign and assembles the records its workers settled; it executes
// nothing, so it must not pay for the golden snapshots injection runs
// restore. The target counts the instances it builds: only the golden
// runs may build any.
func TestPrepareAssembleBuildsNoCheckpoint(t *testing.T) {
	plain := reducedQuickConfig(t)
	src, err := Prepare(plain, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runDir := t.TempDir()
	if _, err := src.Run(Options{Dir: runDir, SkipReport: true}); err != nil {
		t.Fatal(err)
	}
	recs, err := src.LoadJournals(runDir)
	if err != nil {
		t.Fatal(err)
	}

	cfg := plain
	var built atomic.Int64
	cfg.Custom = &campaign.Target{
		Name:     "counting",
		Topology: plain.System,
		New: func(tc physics.TestCase, hook sim.ReadHook) (campaign.RunnableInstance, error) {
			built.Add(1)
			return plain.NewInstance(tc, hook)
		},
	}
	p, err := Prepare(cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Assemble(recs, nil, len(recs), Timing{}, Options{Dir: t.TempDir(), SkipReport: true}); err != nil {
		t.Fatal(err)
	}
	if got, want := built.Load(), int64(len(cfg.TestCases)); got != want {
		t.Errorf("Prepare and Assemble built %d instances, want %d (the golden runs alone)", got, want)
	}
}

// TestPruneRecordsIndependentOfWorkers: which runs reconverge with a
// sibling's trajectory depends on how workers interleave, but the
// records never do — one worker and four settle identical record
// sets — and neither does failures.md, whose exemplars are picked by
// job index, not by completion order.
func TestPruneRecordsIndependentOfWorkers(t *testing.T) {
	for _, name := range []string{"paper", "hostile"} {
		var digests []string
		var failures [][]byte
		for _, workers := range []int{1, 4} {
			dir := t.TempDir()
			if _, err := RunInstance(name, TierQuick, Options{Dir: dir, Workers: workers, SkipReport: true}); err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			_, recs, _, err := loadJournal(JournalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			digests = append(digests, RecordSetDigest(recs))
			md, err := os.ReadFile(filepath.Join(dir, "failures.md"))
			if err != nil {
				t.Fatal(err)
			}
			failures = append(failures, md)
		}
		if digests[0] != digests[1] {
			t.Errorf("%s: record set digest %s with 1 worker, %s with 4", name, digests[0], digests[1])
		}
		if !bytes.Equal(failures[0], failures[1]) {
			t.Errorf("%s: failures.md differs between 1 worker and 4:\n%s\n---\n%s", name, failures[0], failures[1])
		}
	}
}
