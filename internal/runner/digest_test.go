package runner

import (
	"path/filepath"
	"testing"

	"propane/internal/campaign"
)

// TestConfigDigestPinned pins the config digest every registry
// instance binds its journals to, read back from the header of an
// empty slice's journal. The digest folds in the golden-run trace
// digests, so a change to how the golden pass is recorded or hashed
// must not move it: existing journals would stop resuming.
func TestConfigDigestPinned(t *testing.T) {
	synth, err := LoadSynthFile(filepath.Join("..", "..", "examples", "synth", "arrestor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		tier     Tier
		adaptive bool
		digest   string
	}{
		{"paper", TierQuick, false, "91d4f83c8e9546000c3331c9526acc6adb2270f0bf0515cca987d4cca6223f09"},
		{"reduced", TierQuick, false, "b83bed5f736cf78076c440d3deaea7b5a849067743ea833c563597c7367d5554"},
		{"dual", TierQuick, false, "68c12482137acc4ff47382e33989ce6edaaf5ce42721d62e5de9226f5dc300bb"},
		{"autobrake", TierQuick, false, "7ebfea151b60ac56b0243f9dde130387936b9925757c4f00cd6333f3f3ec129c"},
		{"hostile", TierQuick, false, "7c705cd8c9ec674825cc5fdec8774de75792c4f9b8ddcfae9e10700f35eb1615"},
		{"error-models", TierQuick, false, "e02c26bbb131c6410c68c22ba3aea53e979debce6f0fa28110378fa6a83ae3a5"},
		{"tolerance", TierQuick, false, "f4ff072cd94ff1fc4348ea9b9dd54cd2295cbd479a406f32c389f4f8a1605949"},
		{"synth-arrestor", TierQuick, false, "d692bf4f26ece8ee680a46eeb6068eec5204e6a255ba88c75ded0866697357f5"},
		{"paper", TierFull, true, "fb4103f90444a0586a31d3505d03eded1e28535a74dfdfd98ddcb61af2f955a2"},
	} {
		def := synth
		if tc.name != synth.Name {
			if def, err = Lookup(tc.name); err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := def.Config(tc.tier)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.name, tc.tier, err)
		}
		dir := t.TempDir()
		opts := Options{Name: tc.name, Tier: tc.tier, Dir: dir, Jobs: []int{}, SkipReport: true}
		if tc.adaptive {
			opts.Adaptive = campaign.AdaptiveForce
			opts.CIEpsilon = 0.05
		}
		if _, err := Run(cfg, opts); err != nil {
			t.Fatalf("%s/%s: %v", tc.name, tc.tier, err)
		}
		hdr, _, err := ReadJournal(JournalPath(dir))
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.name, tc.tier, err)
		}
		if hdr.ConfigDigest != tc.digest {
			t.Errorf("%s/%s (adaptive %t): config digest = %s, want %s", tc.name, tc.tier, tc.adaptive, hdr.ConfigDigest, tc.digest)
		}
	}
}
