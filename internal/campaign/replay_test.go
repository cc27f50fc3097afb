package campaign_test

// External-package tests for the orchestration hooks added for
// internal/runner: the ErrInvalidConfig sentinel, the deterministic
// Plan enumeration, and the Skip/Replay pair that lets a journaled
// campaign resume without re-executing completed runs. They live in
// package campaign_test so they can render matrices via
// internal/report without an import cycle.

import (
	"errors"
	"fmt"
	"testing"

	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/report"
	"propane/internal/sim"
)

// tinyConfig is a minimal but complete arrestor campaign: 1×2 grid,
// 2 instants, 2 bits — 13 input ports × 2 × 2 × 2 = 104 runs.
func tinyConfig(t *testing.T) campaign.Config {
	t.Helper()
	cases, err := physics.Grid(1, 2, 11000, 11000, 50, 70)
	if err != nil {
		t.Fatal(err)
	}
	return campaign.Config{
		Arrestor:       arrestor.DefaultConfig(),
		TestCases:      cases,
		Times:          []sim.Millis{1500, 3500},
		Bits:           []uint{2, 14},
		HorizonMs:      6000,
		DirectWindowMs: 500,
	}
}

// maskModel flips a set of bits. Its slice field makes it unusable as
// a map key, so a campaign cannot index jobs by its injections.
type maskModel struct{ bits []uint }

func (m maskModel) Mutate(v uint16) uint16 {
	for _, b := range m.bits {
		v ^= 1 << (b & 15)
	}
	return v
}

func (m maskModel) String() string { return fmt.Sprintf("mask%v", m.bits) }

func TestValidateWrapsErrInvalidConfig(t *testing.T) {
	valid := tinyConfig(t)
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := map[string]func(*campaign.Config){
		"no cases":        func(c *campaign.Config) { c.TestCases = nil },
		"no times":        func(c *campaign.Config) { c.Times = nil },
		"no errors":       func(c *campaign.Config) { c.Bits = nil },
		"bad horizon":     func(c *campaign.Config) { c.HorizonMs = 0 },
		"time past end":   func(c *campaign.Config) { c.Times = []sim.Millis{9999} },
		"neg window":      func(c *campaign.Config) { c.DirectWindowMs = -1 },
		"neg duration":    func(c *campaign.Config) { c.FaultDurationMs = -1 },
		"hollow custom":   func(c *campaign.Config) { c.Custom = &campaign.Target{} },
		"broken arrestor": func(c *campaign.Config) { c.Arrestor.TCNTTicksPerMs = 0 },
		"incomparable model": func(c *campaign.Config) {
			c.Models = []inject.ErrorModel{inject.BitFlip{Bit: 1}, maskModel{bits: []uint{1, 2}}}
		},
	}
	for name, mutate := range mutations {
		c := tinyConfig(t)
		mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid config", name)
			continue
		}
		if !errors.Is(err, campaign.ErrInvalidConfig) {
			t.Errorf("%s: error %v does not wrap ErrInvalidConfig", name, err)
		}
	}
	// Run must surface the same sentinel so callers can tell config
	// mistakes from execution failures.
	bad := tinyConfig(t)
	bad.TestCases = nil
	if _, err := campaign.Run(bad); !errors.Is(err, campaign.ErrInvalidConfig) {
		t.Errorf("Run error %v does not wrap ErrInvalidConfig", err)
	}
}

func TestPlanMatchesRunEnumeration(t *testing.T) {
	cfg := tinyConfig(t)
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}
	// Deterministic: two computations agree element-wise.
	again, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for i := range plan {
		if plan[i].String() != again[i].String() {
			t.Fatalf("plan not deterministic at %d: %v vs %v", i, plan[i], again[i])
		}
	}
	// Run visits exactly the planned jobs.
	seen := make(map[string]int)
	cfg.Observer = func(rec campaign.RunRecord) {
		seen[rec.Injection.String()]++
	}
	res, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(plan) * len(cfg.TestCases); res.Runs != want {
		t.Errorf("Runs = %d, want %d", res.Runs, want)
	}
	for _, inj := range plan {
		if seen[inj.String()] != len(cfg.TestCases) {
			t.Errorf("injection %v observed %d times, want %d", inj, seen[inj.String()], len(cfg.TestCases))
		}
	}
}

// TestSkipReplayConverges executes a campaign once uninterrupted,
// then re-runs it with half the jobs skipped and their recorded
// outcomes replayed instead; the resumed result must be bit-identical
// to the baseline.
func TestSkipReplayConverges(t *testing.T) {
	cfg := tinyConfig(t)

	var records []campaign.RunRecord
	cfg.Observer = func(rec campaign.RunRecord) { records = append(records, rec) }
	base, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observer = nil

	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	ji := campaign.NewJobIndex(plan, len(cfg.TestCases))
	// Replay an arbitrary half of the recorded runs (every other
	// record) and skip exactly those jobs on the resumed run.
	done := make(map[int]bool)
	var replay []campaign.RunRecord
	for i, rec := range records {
		if i%2 == 0 {
			job, ok := ji.Job(rec.Injection, rec.CaseIndex)
			if !ok {
				t.Fatalf("observed job %v case %d is not in the plan", rec.Injection, rec.CaseIndex)
			}
			done[job] = true
			replay = append(replay, rec)
		}
	}
	cfg.Replay = replay
	cfg.Skip = func(job int) bool { return done[job] }
	resumed, err := campaign.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	if resumed.Runs != base.Runs || resumed.Unfired != base.Unfired {
		t.Errorf("runs/unfired = %d/%d, want %d/%d", resumed.Runs, resumed.Unfired, base.Runs, base.Unfired)
	}
	if got, want := report.MatrixCSV(resumed.Matrix), report.MatrixCSV(base.Matrix); got != want {
		t.Errorf("resumed matrix differs from baseline:\n%s\nvs\n%s", got, want)
	}
	for i := range base.Pairs {
		b, r := base.Pairs[i], resumed.Pairs[i]
		if b.Injections != r.Injections || b.Errors != r.Errors ||
			b.Transients != r.Transients || b.Permanents != r.Permanents ||
			b.MeanLatencyMs != r.MeanLatencyMs {
			t.Errorf("pair %v stats diverge: %+v vs %+v", b.Pair, r, b)
		}
	}
	for i := range base.Locations {
		if base.Locations[i] != resumed.Locations[i] {
			t.Errorf("location %d diverges: %+v vs %+v", i, resumed.Locations[i], base.Locations[i])
		}
	}
}
