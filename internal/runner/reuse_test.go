package runner

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"propane/internal/campaign"
	"propane/internal/inject"
)

// TestRestoredInstanceMatchesFresh: for every registry target, the
// runs a campaign executes by restoring checkpoints into the instance
// its worker keeps per test case give records field for field equal
// to runs that each build a fresh instance and replay from t=0, also
// on the hostile targets, whose crashes and hangs drop the kept
// instance mid-campaign. A no-op Instrument hook is what turns every
// fast path off. One worker makes every run of a case restore into the
// same instance.
func TestRestoredInstanceMatchesFresh(t *testing.T) {
	var defs []Definition
	for _, name := range []string{"paper", "reduced", "dual", "autobrake", "hostile"} {
		d, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, d)
	}
	for _, doc := range []string{"arrestor.yaml", "hostile.yaml"} {
		d, err := LoadSynthFile(filepath.Join("..", "..", "examples", "synth", doc))
		if err != nil {
			t.Fatal(err)
		}
		defs = append(defs, d)
	}
	type job struct {
		inj     inject.Injection
		caseIdx int
	}
	records := func(t *testing.T, cfg campaign.Config) map[job]campaign.RunRecord {
		recs := make(map[job]campaign.RunRecord)
		cfg.Observer = func(rec campaign.RunRecord) { recs[job{rec.Injection, rec.CaseIndex}] = rec }
		if _, err := campaign.Run(cfg); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	for _, d := range defs {
		t.Run(d.Name, func(t *testing.T) {
			cfg, err := d.Config(TierQuick)
			if err != nil {
				t.Fatal(err)
			}
			cfg.TestCases = cfg.TestCases[:min(2, len(cfg.TestCases))]
			cfg.Workers = 1
			reused := records(t, cfg)
			cfg.Instrument = func(campaign.Instance, int) (any, error) { return nil, nil }
			fresh := records(t, cfg)
			if len(reused) != len(fresh) {
				t.Fatalf("%d records on reused instances, %d on fresh ones", len(reused), len(fresh))
			}
			executed, failed := 0, 0
			for j, got := range reused {
				want, ok := fresh[j]
				if !ok {
					t.Fatalf("%v case %d: no fresh record", j.inj, j.caseIdx)
				}
				if got.Fired != want.Fired || got.FiredAt != want.FiredAt ||
					got.SystemFailure != want.SystemFailure || got.FailureAt != want.FailureAt ||
					got.Outcome != want.Outcome || got.Detail != want.Detail || got.Attempts != want.Attempts ||
					!slices.Equal(got.Diffs, want.Diffs) {
					t.Errorf("%v case %d: reused instance gave %+v, fresh instance %+v", j.inj, j.caseIdx, got, want)
				}
				if got.Pruned == "" {
					executed++
				}
				if got.Outcome == campaign.OutcomeCrash || got.Outcome == campaign.OutcomeHang {
					failed++
				}
			}
			if executed == 0 {
				t.Error("no run executed on a reused instance")
			}
			if strings.Contains(d.Name, "hostile") && failed == 0 {
				t.Error("the hostile target neither crashed nor hung")
			}
		})
	}
}
