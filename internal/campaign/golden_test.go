package campaign

import (
	"errors"
	"sync/atomic"
	"testing"

	"propane/internal/physics"
	"propane/internal/sim"
)

// TestGoldenRejectsMismatchedConfig: a recording serves only configs
// it describes. Using it for other test cases, instants, horizon or
// fault duration — or for a campaign needing firing predictions the
// recording did not capture — is a configuration error, never an
// out-of-range lookup or a silent "unfired".
func TestGoldenRejectsMismatchedConfig(t *testing.T) {
	base := ReducedConfig()
	g, err := RecordGolden(base)
	if err != nil {
		t.Fatal(err)
	}
	instrumented := ReducedConfig()
	instrumented.Instrument = func(Instance, int) (any, error) { return nil, nil }
	unCaptured, err := RecordGolden(instrumented)
	if err != nil {
		t.Fatal(err)
	}
	// Every row also asks for an adaptive planner, which always needs
	// the predictions.
	for _, tc := range []struct {
		name             string
		golden           *Golden
		mutate           func(*Config)
		runOK, plannerOK bool
	}{
		{"same config", g, func(*Config) {}, true, true},
		{"execution fields differ", g, func(c *Config) { c.Workers = 1; c.DirectWindowMs = 0 }, true, true},
		{"fewer test cases", g, func(c *Config) { c.TestCases = c.TestCases[:len(c.TestCases)-1] }, false, false},
		{"other test case", g, func(c *Config) { c.TestCases[0].MassKg++ }, false, false},
		{"other times", g, func(c *Config) { c.Times = []sim.Millis{1000, 2500, 4500} }, false, false},
		{"other horizon", g, func(c *Config) { c.HorizonMs = 5000 }, false, false},
		{"other fault duration", g, func(c *Config) { c.FaultDurationMs = 100 }, false, false},
		{"uncaptured, instrumented", unCaptured, func(c *Config) { c.Instrument = instrumented.Instrument }, true, false},
		{"uncaptured, pruning", unCaptured, func(*Config) {}, false, false},
	} {
		cfg := ReducedConfig()
		tc.mutate(&cfg)
		cfg.Skip = func(int) bool { return true } // nothing needs to execute
		if _, err := tc.golden.Run(cfg); tc.runOK != (err == nil) || (err != nil && !errors.Is(err, ErrInvalidConfig)) {
			t.Errorf("%s: Run error = %v, want ok=%t or ErrInvalidConfig", tc.name, err, tc.runOK)
		}
		cfg.Adaptive = AdaptiveForce
		if _, err := tc.golden.Planner(cfg); tc.plannerOK != (err == nil) || (err != nil && !errors.Is(err, ErrInvalidConfig)) {
			t.Errorf("%s: Planner error = %v, want ok=%t or ErrInvalidConfig", tc.name, err, tc.plannerOK)
		}
	}
}

// TestGoldenCheckpointsSharedAcrossRuns: a Golden builds each test
// case's golden snapshots once, on first use, and every Run of it
// restores the same ones, into instances its workers keep per test
// case. The target counts the instances it builds: one golden run and
// one checkpoint pass per case, then per Run at most one per worker
// and case, plus one per run that crashed or hung (its worker drops
// the instance) — far fewer than the runs that executed.
func TestGoldenCheckpointsSharedAcrossRuns(t *testing.T) {
	cfg := tinyConfig()
	cfg.Workers = 2
	inner := cfg
	var built atomic.Int64
	cfg.Custom = &Target{
		Name:     "counting",
		Topology: inner.System,
		New: func(tc physics.TestCase, hook sim.ReadHook) (RunnableInstance, error) {
			built.Add(1)
			return inner.NewInstance(tc, hook)
		},
	}
	g, err := RecordGolden(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bound := int64(len(cfg.TestCases))
	if got := built.Load(); got != bound {
		t.Fatalf("recording built %d instances, want %d golden runs", got, bound)
	}
	bound += int64(len(cfg.TestCases))
	for i := 0; i < 2; i++ {
		res, err := g.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		executed := int64(res.Pruning.Executed + res.Pruning.Converged)
		perRun := int64(cfg.Workers*len(cfg.TestCases) + res.Crashes + res.Hangs)
		if executed <= perRun {
			t.Fatalf("run %d executed %d runs, too few to show reuse against %d instances", i+1, executed, perRun)
		}
		bound += perRun
		if got := built.Load(); got > bound {
			t.Errorf("after run %d: %d instances built, want at most %d (checkpoint passes once per case, one instance per worker and case)", i+1, got, bound)
		}
	}
}
