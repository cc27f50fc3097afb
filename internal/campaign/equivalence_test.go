package campaign

// Equivalence suite for the checkpoint fast-forward path: for every
// target topology — including the adversarial one whose injections
// crash and hang the run — a campaign executed as configured (which
// fast-forwards wherever the target supports it) must produce a Result
// bit-identical to the same campaign under the test-only replayAll
// oracle (full replay from t=0). The suite runs under
// -race in CI, so it also stresses the shared snapshot cache.

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// runKeyed executes the campaign and returns the Result together with
// every RunRecord keyed by (injection, case) — the per-run view the
// aggregate statistics are built from.
func runKeyed(t *testing.T, cfg Config) (*Result, map[string]RunRecord) {
	t.Helper()
	g, err := RecordGolden(cfg)
	if err != nil {
		t.Fatalf("RecordGolden: %v", err)
	}
	return runKeyedOn(t, g, cfg)
}

// runKeyedOn is runKeyed against an existing recording.
func runKeyedOn(t *testing.T, g *Golden, cfg Config) (*Result, map[string]RunRecord) {
	t.Helper()
	var mu sync.Mutex
	records := make(map[string]RunRecord)
	cfg.Observer = func(rec RunRecord) {
		mu.Lock()
		defer mu.Unlock()
		key := fmt.Sprintf("%s#%d", rec.Injection.String(), rec.CaseIndex)
		if _, dup := records[key]; dup {
			t.Errorf("duplicate record for %s", key)
		}
		records[key] = rec
	}
	res, err := g.Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res, records
}

// assertEquivalent compares the full-replay baseline against the
// checkpointed run: every per-run record and every aggregate must
// match exactly.
func assertEquivalent(t *testing.T, base, ck *Result, baseRecs, ckRecs map[string]RunRecord) {
	t.Helper()
	if len(ckRecs) != len(baseRecs) {
		t.Fatalf("checkpointed run produced %d records, baseline %d", len(ckRecs), len(baseRecs))
	}
	for key, b := range baseRecs {
		c, ok := ckRecs[key]
		if !ok {
			t.Errorf("%s: missing from checkpointed run", key)
			continue
		}
		if b.Outcome != c.Outcome || b.Fired != c.Fired || b.FiredAt != c.FiredAt ||
			b.SystemFailure != c.SystemFailure || b.FailureAt != c.FailureAt ||
			b.Detail != c.Detail || b.Attempts != c.Attempts {
			t.Errorf("%s: record diverges:\nfull replay: %+v\ncheckpointed: %+v", key, b, c)
		}
		if !reflect.DeepEqual(b.Diffs, c.Diffs) {
			t.Errorf("%s: diffs diverge:\nfull replay: %v\ncheckpointed: %v", key, b.Diffs, c.Diffs)
		}
	}

	if base.Runs != ck.Runs || base.Unfired != ck.Unfired ||
		base.Crashes != ck.Crashes || base.Hangs != ck.Hangs ||
		len(base.Quarantined) != len(ck.Quarantined) {
		t.Errorf("totals diverge: runs %d/%d unfired %d/%d crashes %d/%d hangs %d/%d",
			base.Runs, ck.Runs, base.Unfired, ck.Unfired,
			base.Crashes, ck.Crashes, base.Hangs, ck.Hangs)
	}
	if len(base.Pairs) != len(ck.Pairs) {
		t.Fatalf("pair count diverges: %d vs %d", len(base.Pairs), len(ck.Pairs))
	}
	for i := range base.Pairs {
		b, c := base.Pairs[i], ck.Pairs[i]
		// Compare the exported statistics only: the unexported latency
		// accumulators depend on worker completion order, which the
		// checkpoint job reordering legitimately changes.
		if b.Pair != c.Pair || b.Injections != c.Injections || b.Errors != c.Errors ||
			b.Estimate != c.Estimate || b.CI != c.CI || b.MeanLatencyMs != c.MeanLatencyMs ||
			b.Transients != c.Transients || b.Permanents != c.Permanents ||
			b.Crashes != c.Crashes || b.Hangs != c.Hangs {
			t.Errorf("pair %v diverges:\nfull replay: %+v\ncheckpointed: %+v", b.Pair, b, c)
		}
	}
	if !reflect.DeepEqual(base.Locations, ck.Locations) {
		t.Errorf("location propagation diverges:\nfull replay: %+v\ncheckpointed: %+v",
			base.Locations, ck.Locations)
	}
}

// TestCheckpointEquivalence proves the tentpole contract on every
// target: fast-forwarding from a cached snapshot yields the same
// Result matrix, run for run, as replaying each injection from t=0.
func TestCheckpointEquivalence(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		// hostile covers the crash and hang outcomes: a snapshot taken
		// before the poison bit fires must still crash/hang identically.
		"hostile": hostileConfig,
		// reduced is the paper-shaped instance (full grid, 4 bits × 3
		// instants); skipped under -short to keep quick runs quick.
		"reduced": func(t *testing.T) Config {
			if testing.Short() {
				t.Skip("reduced equivalence skipped in -short mode")
			}
			return ReducedConfig()
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			off := mk(t)
			off.replayAll = true
			base, baseRecs := runKeyed(t, off)

			ck, ckRecs := runKeyed(t, mk(t))

			assertEquivalent(t, base, ck, baseRecs, ckRecs)
		})
	}
}

// TestCheckpointAutoFallsBackUnderInstrument: an Instrument hook may
// observe pre-injection state, so an instrumented campaign must
// silently take the full-replay path — and still produce the baseline
// Result.
func TestCheckpointAutoFallsBackUnderInstrument(t *testing.T) {
	attach := func(inst Instance, caseIdx int) (any, error) { return caseIdx, nil }

	off := tinyConfig()
	off.replayAll = true
	off.Instrument = attach
	base, baseRecs := runKeyed(t, off)

	auto := tinyConfig()
	auto.Instrument = attach
	g, err := RecordGolden(auto)
	if err != nil {
		t.Fatal(err)
	}
	if g.fastForward(auto) {
		t.Fatal("checkpoints enabled under an Instrument hook")
	}
	ck, ckRecs := runKeyed(t, auto)

	assertEquivalent(t, base, ck, baseRecs, ckRecs)
	for key, rec := range ckRecs {
		if rec.Attachment != rec.CaseIndex {
			t.Errorf("%s: attachment %v, want case index %d", key, rec.Attachment, rec.CaseIndex)
		}
	}
}

// TestInstrumentLateRegistrationFails: an Instrument hook that
// registers a signal after the run's comparator is bound shifts the
// bus's columns; the run must fail rather than report diffs against
// the wrong golden signals.
func TestInstrumentLateRegistrationFails(t *testing.T) {
	cfg := tinyConfig()
	cfg.Instrument = func(inst Instance, caseIdx int) (any, error) {
		inst.Bus().Register("aaa_late")
		return nil, nil
	}
	_, err := Run(cfg)
	if err == nil || !strings.Contains(err.Error(), "registered after") {
		t.Fatalf("Run = %v, want a late-registration error", err)
	}
}

// TestCheckpointSingleWorkerDeterminism pins Workers to 1 so both
// paths run fully sequentially: any divergence here is a checkpoint
// state bug, not a scheduling artifact.
func TestCheckpointSingleWorkerDeterminism(t *testing.T) {
	off := tinyConfig()
	off.Workers = 1
	off.replayAll = true
	base, baseRecs := runKeyed(t, off)

	on := tinyConfig()
	on.Workers = 1
	ck, ckRecs := runKeyed(t, on)

	assertEquivalent(t, base, ck, baseRecs, ckRecs)
}
