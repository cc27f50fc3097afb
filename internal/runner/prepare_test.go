package runner

import (
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
