package target_test

import (
	"testing"

	"propane/internal/arrestor"
	"propane/internal/autobrake"
	"propane/internal/physics"
	"propane/internal/target"
)

// Both built-in targets must satisfy RunnableInstance so the campaign
// engine can drive them interchangeably.
var (
	_ target.RunnableInstance = (*arrestor.Instance)(nil)
	_ target.RunnableInstance = (*autobrake.Instance)(nil)
)

func TestAutobrakeTargetRuns(t *testing.T) {
	tgt := autobrake.Target(autobrake.DefaultConfig())
	if tgt.Name == "" || tgt.Topology == nil || tgt.New == nil {
		t.Fatalf("incomplete target: %+v", tgt)
	}
	inst, err := tgt.New(physics.TestCase{MassKg: 1500, VelocityMS: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(10)
	if got := len(inst.Bus().Columns()); got == 0 {
		t.Error("instance bus has no signals")
	}
}
