package runner

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"propane/internal/campaign"
)

// TestAdaptiveRunKillAndResume: the adaptive campaign's resume
// guarantee — a run killed mid-journal resumes with the scheduler
// re-deriving every stopping decision from the journaled prefix, so
// the healed journal holds the bit-identical record set (same jobs,
// same outcomes) an uninterrupted run produces.
func TestAdaptiveRunKillAndResume(t *testing.T) {
	opts := func(dir string) Options {
		return Options{Dir: dir, Adaptive: campaign.AdaptiveForce}
	}
	baseDir := t.TempDir()
	base, err := RunInstance("reduced", TierQuick, opts(baseDir))
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Adaptive == nil {
		t.Fatal("adaptive run carries no AdaptiveStats")
	}
	wantMatrix, wantRuns, _ := fingerprintResult(t, base)

	hdr, baseRecs, _, err := loadJournal(filepath.Join(baseDir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != journalVersion {
		t.Errorf("adaptive journal stamped version %d, want %d", hdr.Version, journalVersion)
	}
	rounds := 0
	for _, r := range baseRecs {
		if r.Round > 0 {
			rounds++
		}
	}
	if rounds != len(baseRecs) {
		t.Errorf("%d of %d records carry a round label, want all", rounds, len(baseRecs))
	}
	wantDigest := RecordSetDigest(baseRecs)

	pristine, err := os.ReadFile(filepath.Join(baseDir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{
		10,                     // mid-header: everything re-runs
		len(pristine) * 1 / 10, // early kill, inside the pilot batches
		len(pristine) * 3 / 5,  // late kill
		len(pristine) - 7,      // torn final record
		len(pristine),          // clean completion, resume is a no-op
	}
	for _, off := range offsets {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.bin"), pristine[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		o := opts(dir)
		o.Resume = true
		rr, err := RunInstance("reduced", TierQuick, o)
		if err != nil {
			t.Fatalf("resume after truncation at %d: %v", off, err)
		}
		matrix, runs, _ := fingerprintResult(t, rr)
		if runs != wantRuns || matrix != wantMatrix {
			t.Errorf("truncation at %d: resumed result differs from uninterrupted adaptive run", off)
		}
		_, recs, _, err := loadJournal(filepath.Join(dir, "journal.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if got := RecordSetDigest(recs); got != wantDigest {
			t.Errorf("truncation at %d: healed journal's record set diverged — the resumed scheduler made different decisions", off)
		}
	}
}

// TestAdaptiveDigestPinsMode: the adaptive mode and ε are part of the
// config digest exactly when they decide the job set — AdaptiveOff and
// a declining AdaptiveAuto digest identically to a pre-adaptive build,
// while Force and different ε values each get their own digest.
func TestAdaptiveDigestPinsMode(t *testing.T) {
	describe := func(opts Options) PlanInfo {
		t.Helper()
		p, err := PrepareInstance("reduced", TierQuick, opts)
		if err != nil {
			t.Fatal(err)
		}
		return p.Info()
	}
	plain := describe(Options{})
	if plain.Adaptive {
		t.Error("default description claims adaptive")
	}
	// The quick tier sits below AdaptiveAuto's size threshold, so Auto
	// resolves to Off and must not perturb the digest.
	auto := describe(Options{Adaptive: campaign.AdaptiveAuto})
	if auto.Digest != plain.Digest {
		t.Error("declined AdaptiveAuto changed the config digest")
	}
	force := describe(Options{Adaptive: campaign.AdaptiveForce})
	if !force.Adaptive || force.CIEpsilon <= 0 {
		t.Errorf("forced description = %+v, want adaptive with a resolved ε", force)
	}
	if force.Digest == plain.Digest {
		t.Error("AdaptiveForce did not change the config digest")
	}
	tight := describe(Options{Adaptive: campaign.AdaptiveForce, CIEpsilon: 0.02})
	if tight.Digest == force.Digest {
		t.Error("changing ε did not change the config digest")
	}
}

// TestAdaptiveAssemble: assembling an adaptive campaign proves
// completeness against the schedule (re-derived deterministically from
// the config), not against the matrix size — and refuses journals
// whose records leave the schedule open.
func TestAdaptiveAssemble(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Name: "reduced", Tier: TierQuick, Dir: dir, Adaptive: campaign.AdaptiveForce}
	base, err := RunInstance("reduced", TierQuick, Options{Dir: dir, Adaptive: campaign.AdaptiveForce})
	if err != nil {
		t.Fatal(err)
	}
	wantMatrix, wantRuns, _ := fingerprintResult(t, base)

	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}

	rr, err := assemble(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	matrix, runs, _ := fingerprintResult(t, rr)
	if runs != wantRuns || matrix != wantMatrix {
		t.Error("assembled adaptive result differs from the live run")
	}
	if rr.Metrics.ExecutedRuns != 0 {
		t.Errorf("Assemble executed %d runs, want 0", rr.Metrics.ExecutedRuns)
	}
	if rr.Result.Adaptive == nil {
		t.Error("assembled result carries no AdaptiveStats")
	}

	// A journal that stops short of closing the schedule must fail
	// assembly with the dedicated sentinel.
	journal := filepath.Join(dir, "journal.bin")
	data, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := assemble(cfg, opts); !errors.Is(err, ErrScheduleIncomplete) {
		t.Errorf("Assemble over a half journal: %v, want ErrScheduleIncomplete", err)
	}
}

// TestAdaptiveEquivalenceAcrossRegistry runs every registry instance's
// quick tier both ways — full matrix and forced-adaptive — and checks
// the contract the speedup rests on: every pair estimate agrees within
// the stopping half-width ε, and the module ordering (the paper's
// Table 2 product) is preserved (Kendall tau ≥ 0.95).
func TestAdaptiveEquivalenceAcrossRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every registry instance twice")
	}
	for _, def := range Instances() {
		def := def
		t.Run(def.Name, func(t *testing.T) {
			full, err := RunInstance(def.Name, TierQuick, Options{Dir: t.TempDir(), SkipReport: true})
			if err != nil {
				t.Fatal(err)
			}
			adap, err := RunInstance(def.Name, TierQuick, Options{
				Dir: t.TempDir(), SkipReport: true, Adaptive: campaign.AdaptiveForce,
			})
			if err != nil {
				t.Fatal(err)
			}
			if adap.Result.Adaptive == nil {
				t.Fatal("adaptive run carries no AdaptiveStats")
			}
			eps := adap.Result.Adaptive.Epsilon
			if len(full.Result.Pairs) != len(adap.Result.Pairs) {
				t.Fatalf("pair count %d vs %d", len(full.Result.Pairs), len(adap.Result.Pairs))
			}
			for i := range full.Result.Pairs {
				fp, ap := full.Result.Pairs[i], adap.Result.Pairs[i]
				if fp.Pair != ap.Pair {
					t.Fatalf("pair order mismatch at %d", i)
				}
				if diff := fp.Estimate - ap.Estimate; diff > eps || diff < -eps {
					t.Errorf("%v: full %v vs adaptive %v differs beyond ε=%v",
						fp.Pair, fp.Estimate, ap.Estimate, eps)
				}
			}
			// Module ordering (the Table 2 product): over the module
			// pairs the full matrix strictly orders, at least 95% must
			// keep their order under adaptive sampling — Kendall
			// concordance restricted to untied pairs, since tau-a
			// charges ties against identical orderings.
			names := full.Result.Matrix.System().ModuleNames()
			fm := make([]float64, len(names))
			am := make([]float64, len(names))
			for i, name := range names {
				if fm[i], err = full.Result.Matrix.RelativePermeability(name); err != nil {
					t.Fatal(err)
				}
				if am[i], err = adap.Result.Matrix.RelativePermeability(name); err != nil {
					t.Fatal(err)
				}
			}
			strict, discordant := 0, 0
			for i := 0; i < len(names); i++ {
				for j := i + 1; j < len(names); j++ {
					da := fm[i] - fm[j]
					if da == 0 {
						continue
					}
					strict++
					if da*(am[i]-am[j]) < 0 {
						discordant++
					}
				}
			}
			if strict > 0 {
				if tau := float64(strict-discordant) / float64(strict); tau < 0.95 {
					t.Errorf("module ordering concordance %v < 0.95 (%d of %d ordered pairs inverted)",
						tau, discordant, strict)
				}
			}
		})
	}
}
