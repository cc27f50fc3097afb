package campaign

import (
	"errors"
	"testing"

	"propane/internal/inject"
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
		cfg.Skip = func(inject.Injection, int) bool { return true } // nothing needs to execute
		if _, err := tc.golden.Run(cfg); tc.runOK != (err == nil) || (err != nil && !errors.Is(err, ErrInvalidConfig)) {
			t.Errorf("%s: Run error = %v, want ok=%t or ErrInvalidConfig", tc.name, err, tc.runOK)
		}
		cfg.Adaptive = AdaptiveForce
		if _, err := tc.golden.Planner(cfg); tc.plannerOK != (err == nil) || (err != nil && !errors.Is(err, ErrInvalidConfig)) {
			t.Errorf("%s: Planner error = %v, want ok=%t or ErrInvalidConfig", tc.name, err, tc.plannerOK)
		}
	}
}
