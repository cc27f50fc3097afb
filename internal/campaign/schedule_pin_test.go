package campaign

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/sim"
)

// TestAdaptiveSchedulePinned pins the adaptive sampling permutation:
// per location, the sequence of (plan index, case index) samples the
// scheduler draws from, hashed in location order. The order is the
// first thing a stopping decision depends on, so it decides which
// jobs an adaptive campaign executes; a change to how jobs are keyed
// or how the tie hash is fed must leave it bit-identical, or every
// existing adaptive journal would resume into a different schedule.
//
// The cases are the paper campaign at the full tier (ε = 0.05) and the
// error-models ablation at the quick tier, whose stuck-at, replace and
// signed offset models exercise every model rendering the tie hash
// reads.
func TestAdaptiveSchedulePinned(t *testing.T) {
	quickCases, err := physics.Grid(2, 2, 8000, 20000, 40, 80)
	if err != nil {
		t.Fatal(err)
	}
	errorModels := Config{
		Arrestor:       PaperConfig().Arrestor,
		TestCases:      quickCases,
		Times:          []sim.Millis{1000, 2500, 4000},
		HorizonMs:      6000,
		DirectWindowMs: 500,
		Models: []inject.ErrorModel{
			inject.BitFlip{Bit: 3},
			inject.BitFlip{Bit: 12},
			inject.StuckAt{Bit: 3},
			inject.StuckAt{Bit: 3, One: true},
			inject.Replace{Value: 0x5555},
			inject.Offset{Delta: 129},
		},
	}
	for _, tc := range []struct {
		name       string
		cfg        Config
		population int
		digest     string
	}{
		{"paper/full", PaperConfig(), 52000, "b5ae37cba015b901967f94d3139e3ca6b3fbab79ae8dac77128ba2b03aa9e421"},
		{"error-models/quick", errorModels, 936, "70fa827d2eccc9de67d1f20cbf04e13049d240c67b9eede856a4e7db4156aac7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Adaptive = AdaptiveForce
			cfg.CIEpsilon = 0.05
			g, err := RecordGolden(cfg)
			if err != nil {
				t.Fatal(err)
			}
			p, err := g.Planner(cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			population := 0
			for _, loc := range p.sched.locs {
				fmt.Fprintf(h, "%s/%s:", loc.module, loc.signal)
				for _, j := range loc.jobs {
					fmt.Fprintf(h, "%d,%d;", j.planIdx, j.caseIdx)
				}
				h.Write([]byte{'\n'})
				population += len(loc.jobs)
			}
			if got := hex.EncodeToString(h.Sum(nil)); population != tc.population || got != tc.digest {
				t.Errorf("schedule = (population %d, digest %s), pinned (%d, %s)", population, got, tc.population, tc.digest)
			}
		})
	}
}
