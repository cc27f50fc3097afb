package runner

import (
	"path/filepath"
	"testing"

	"propane/internal/target"
)

// TestSnapshotDigestPinned pins Snapshot.Digest for one checkpoint of
// every target family. The digest keys the memo and the persistent
// store across processes, so a change to how the bus lays out its
// values must not move it: a snapshot's signals stay in registration
// order whatever order the bus keeps them in.
func TestSnapshotDigestPinned(t *testing.T) {
	synth, err := LoadSynthFile(filepath.Join("..", "..", "examples", "synth", "arrestor.yaml"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ name, digest string }{
		{"paper", "f87731c8ea5b512b2adab42be6ae56aa7cd5bcde8e0a5950a962bd470aa6ee1a"},
		{"dual", "c5122915fb7aea1cd9ebcd9e2f4d3ab2363a625391a30ffc7f3739e7a28fadf0"},
		{"autobrake", "9c66247b93150420b9b28e8902d5d37ae7330972dd257fe0f6ff32e4632ee9dd"},
		{"hostile", "ce92b983b4419fc571a6ed6acc28199179a4c8d25875e70d2f95ec0077ebfc31"},
		{"synth-arrestor", "ee551c812768b182b898541234661d8233975c180fbc28d688e0b5a4e3753108"},
	} {
		name := tc.name
		def := synth
		if name != synth.Name {
			if def, err = Lookup(name); err != nil {
				t.Fatal(err)
			}
		}
		cfg, err := def.Config(TierQuick)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		inst, err := cfg.NewInstance(cfg.TestCases[0], nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ck, ok := inst.(target.Checkpointable)
		if !ok {
			t.Fatalf("%s: target is not checkpointable", name)
		}
		inst.Kernel().SetBudget(cfg.Budget)
		inst.Run(1500)
		snap, err := ck.Checkpoint()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := snap.Digest(); got != tc.digest {
			t.Errorf("%s: snapshot digest at t=1500 = %s, want %s", name, got, tc.digest)
		}
	}
}
