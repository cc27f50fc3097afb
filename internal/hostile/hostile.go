// Package hostile provides a deliberately adversarial target system
// for exercising the supervised execution layer: a small pipeline in
// which an injected error can crash a module (a Go panic) or drive a
// module into a non-terminating loop. The paper's PROPANE tool
// (Section 4) classifies exactly these SWIFI outcomes — crash and
// hang — alongside data deviation; this target makes them reproducible
// on demand, so the campaign engine's watchdog, crash classification
// and quarantine paths can be tested and benchmarked against a target
// that does not politely return.
//
// Topology (all signals 16-bit, golden values always below 0x8000):
//
//	hs_cmd  ──▶ FEED ──▶ hs_val  ──▶ MINE   ──▶ hs_mine ─┐
//	                 └─▶ hs_tick ──▶ TARPIT ──▶ hs_pit  ─┴▶ SINK ──▶ hs_out
//
// MINE panics when it reads a value with bit 15 set; TARPIT spins
// forever (charging the kernel's step budget) when it reads a value
// with bit 15 set. A bit-15 flip injected on MINE's or TARPIT's input
// therefore produces a deterministic crash or hang, while flips on
// lower bits propagate as ordinary data deviations.
package hostile

import (
	"fmt"

	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/target"
)

// Module and signal names.
const (
	ModFeed   = "FEED"
	ModMine   = "MINE"
	ModTarpit = "TARPIT"
	ModSink   = "SINK"

	SigCmd  = "hs_cmd"
	SigVal  = "hs_val"
	SigTick = "hs_tick"
	SigMine = "hs_mine"
	SigPit  = "hs_pit"
	SigOut  = "hs_out"
)

// poisonBit is the bit whose corruption arms the hostile behaviour:
// golden values never have it set.
const poisonBit = 0x8000

// Topology returns the module/signal decomposition of the hostile
// pipeline.
func Topology() *model.System {
	sys, err := model.NewBuilder("hostile").
		AddModule(ModFeed, []string{SigCmd}, []string{SigVal, SigTick}).
		AddModule(ModMine, []string{SigVal}, []string{SigMine}).
		AddModule(ModTarpit, []string{SigTick}, []string{SigPit}).
		AddModule(ModSink, []string{SigMine, SigPit}, []string{SigOut}).
		Build()
	if err != nil {
		// The topology is a compile-time constant; failure here is a
		// programming error in this package.
		panic("hostile: invalid topology: " + err.Error())
	}
	return sys
}

// Instance is one wired simulation of the hostile pipeline.
type Instance struct {
	kernel *sim.Kernel
	bus    *sim.Bus

	// Checkpointer makes the instance target.Checkpointable, with no
	// hidden state: every hostile module is a pure function of its
	// inputs and the current tick, so the sim-layer capture (kernel
	// time, budget accounting, bus signals) is the complete state —
	// which also means a checkpoint taken before a poison bit arms MINE
	// or TARPIT restores to an instance that crashes or hangs exactly as
	// a full replay would.
	target.Checkpointer
}

// Bus implements target.Instance.
func (in *Instance) Bus() *sim.Bus { return in.bus }

// Kernel implements target.Instance.
func (in *Instance) Kernel() *sim.Kernel { return in.kernel }

// Run implements target.RunnableInstance.
func (in *Instance) Run(horizon sim.Millis) { in.kernel.Run(horizon, nil) }

// feed derives the pipeline's working values from the command input.
type feed struct {
	sim.Reader
	cmd, val, tick *sim.Signal
}

func (f *feed) Step(now sim.Millis) {
	c := f.Read(f.cmd, now)
	// Keep golden values strictly below the poison bit.
	f.val.Write((c + uint16(now)) & 0x7FFF)
	f.tick.Write((c ^ uint16(now*3)) & 0x7FFF)
}

// mine passes its input through — unless the value carries the poison
// bit, in which case it panics like target code dereferencing a
// corrupted pointer.
type mine struct {
	sim.Reader
	in, out *sim.Signal
}

func (m *mine) Step(now sim.Millis) {
	v := m.Read(m.in, now)
	if v&poisonBit != 0 {
		panic(fmt.Sprintf("hostile: mine tripped by %#04x at t=%dms", v, now))
	}
	m.out.Write(v)
}

// tarpit passes its input through — unless the value carries the
// poison bit, in which case it spins forever, charging the kernel's
// step budget each iteration so only the watchdog can end the run.
type tarpit struct {
	sim.Reader
	kernel  *sim.Kernel
	in, out *sim.Signal
}

func (t *tarpit) Step(now sim.Millis) {
	v := t.Read(t.in, now)
	for v&poisonBit != 0 {
		t.kernel.Charge(1)
	}
	t.out.Write(v)
}

// sink folds the two branches into the system output.
type sink struct {
	sim.Reader
	a, b, out *sim.Signal
}

func (s *sink) Step(now sim.Millis) {
	s.out.Write(s.Read(s.a, now) + s.Read(s.b, now))
}

// NewInstance builds a fresh hostile instance for one workload point.
// The test case selects the command profile (mass and velocity are
// folded into the base command value), so distinct cases produce
// distinct golden traces. hook is the injection/logging trap.
func NewInstance(tc physics.TestCase, hook sim.ReadHook) (*Instance, error) {
	kernel, err := sim.NewKernel(1)
	if err != nil {
		return nil, err
	}
	bus := sim.NewBus()
	cmd := bus.Register(SigCmd)
	val := bus.Register(SigVal)
	tick := bus.Register(SigTick)
	mineOut := bus.Register(SigMine)
	pit := bus.Register(SigPit)
	out := bus.Register(SigOut)

	base := uint16(int64(tc.MassKg/10)+int64(tc.VelocityMS)) & 0x3FFF
	kernel.AddPreHook(func(now sim.Millis) {
		cmd.Write((base + uint16(now/16)) & 0x3FFF)
	})

	kernel.AddEveryTick(&feed{Reader: sim.NewReader(ModFeed, hook), cmd: cmd, val: val, tick: tick})
	kernel.AddEveryTick(&mine{Reader: sim.NewReader(ModMine, hook), in: val, out: mineOut})
	kernel.AddEveryTick(&tarpit{Reader: sim.NewReader(ModTarpit, hook), kernel: kernel, in: tick, out: pit})
	kernel.AddEveryTick(&sink{Reader: sim.NewReader(ModSink, hook), a: mineOut, b: pit, out: out})
	return &Instance{kernel: kernel, bus: bus, Checkpointer: target.NewCheckpointer(kernel, bus)}, nil
}

// Target adapts the hostile pipeline to the campaign engine.
func Target() *target.Target {
	return &target.Target{
		Name:     "hostile",
		Topology: Topology,
		New: func(tc physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
			return NewInstance(tc, hook)
		},
	}
}

// RunBudget returns a step budget generous enough for any benign run
// to the given horizon (4 modules per tick plus headroom) while still
// tripping within milliseconds of wall time on a poisoned TARPIT.
func RunBudget(horizon sim.Millis) sim.Budget {
	return sim.Budget{Steps: int64(horizon)*16 + 1024}
}
