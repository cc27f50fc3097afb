package arrestor

import (
	"reflect"
	"testing"

	"propane/internal/physics"
	"propane/internal/sim"
)

func TestTopologyMatchesPaper(t *testing.T) {
	sys := Topology()
	if got, want := sys.TotalPairs(), 25; got != want {
		t.Errorf("TotalPairs() = %d, want %d (Section 8)", got, want)
	}
	if got, want := sys.SystemInputs(), []string{SigADC, SigPACNT, SigTCNT, SigTIC1}; !reflect.DeepEqual(got, want) {
		t.Errorf("SystemInputs() = %v, want %v", got, want)
	}
	if got, want := sys.SystemOutputs(), []string{SigTOC2}; !reflect.DeepEqual(got, want) {
		t.Errorf("SystemOutputs() = %v, want %v", got, want)
	}
	// The two module-local feedback loops: ms_slot_nbr in CLOCK and i
	// in CALC.
	for _, mod := range []string{ModClock, ModCalc} {
		if !sys.HasLocalFeedback(mod) {
			t.Errorf("HasLocalFeedback(%s) = false, want true", mod)
		}
	}
	for _, mod := range []string{ModDistS, ModPresS, ModVReg, ModPresA} {
		if sys.HasLocalFeedback(mod) {
			t.Errorf("HasLocalFeedback(%s) = true, want false", mod)
		}
	}
	// Paper numbering spot checks: PACNT is input 1 of DIST_S, mscnt
	// is input 2 of CALC, SetValue is output 2 of CALC.
	ds, err := sys.Module(ModDistS)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.InputIndex(SigPACNT); got != 1 {
		t.Errorf("PACNT input index = %d, want 1", got)
	}
	calcMod, err := sys.Module(ModCalc)
	if err != nil {
		t.Fatal(err)
	}
	if got := calcMod.InputIndex(SigMscnt); got != 2 {
		t.Errorf("mscnt input index = %d, want 2", got)
	}
	if got := calcMod.OutputIndex(SigSetValue); got != 2 {
		t.Errorf("SetValue output index = %d, want 2", got)
	}
}

func TestConfigValidation(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"zero ticks":         func(c *Config) { c.TCNTTicksPerMs = 0 },
		"zero slow gap":      func(c *Config) { c.SlowGapTicks = 0 },
		"zero persistence":   func(c *Config) { c.StopPersistMs = 0 },
		"non-increasing cps": func(c *Config) { c.CheckpointPulses[2] = c.CheckpointPulses[1] },
		"zero window":        func(c *Config) { c.WindowMs = 0 },
		"zero vref":          func(c *Config) { c.VRefPulses = 0 },
		"zero slew":          func(c *Config) { c.MaxSlew = 0 },
		"slot out of range":  func(c *Config) { c.SlotVReg = NumSlots },
		"negative slot":      func(c *Config) { c.SlotPresS = -1 },
		"duplicate slots":    func(c *Config) { c.SlotPresA = c.SlotVReg },
		"bad physics":        func(c *Config) { c.Physics.ValveTauS = 0 },
	}
	for name, mut := range mutations {
		t.Run(name, func(t *testing.T) {
			c := DefaultConfig()
			mut(&c)
			if err := c.Validate(); err == nil {
				t.Error("Validate() accepted invalid config")
			}
		})
	}
}

func TestNewInstanceRejectsInvalid(t *testing.T) {
	bad := DefaultConfig()
	bad.MaxSlew = 0
	if _, err := NewInstance(bad, physics.TestCase{MassKg: 10000, VelocityMS: 50}, nil); err == nil {
		t.Error("NewInstance accepted invalid config")
	}
	if _, err := NewInstance(DefaultConfig(), physics.TestCase{}, nil); err == nil {
		t.Error("NewInstance accepted invalid test case")
	}
}

func TestInstanceDeterminism(t *testing.T) {
	run := func() map[string]uint16 {
		inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 14000, VelocityMS: 60}, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(2000)
		return inst.Bus().Snapshot()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two identical runs diverged:\n%v\n%v", a, b)
	}
}

func TestClosedLoopArrestment(t *testing.T) {
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 11000, VelocityMS: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	v0 := inst.World().VelocityMS()
	inst.Run(6000)

	if got := inst.World().VelocityMS(); got >= v0/2 {
		t.Errorf("velocity after 6 s = %v, want < half of %v", got, v0)
	}
	bus := inst.Bus()
	mustRead := func(name string) uint16 {
		s, err := bus.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		return s.Read()
	}
	// Software counted the pulses the drum produced.
	if got, want := uint64(mustRead(SigPulscnt)), inst.World().PulseCount(); got != want {
		t.Errorf("pulscnt = %d, want %d (hardware count)", got, want)
	}
	// The controller engaged the brake.
	if mustRead(SigTOC2) == 0 {
		t.Error("TOC2 = 0 after 6 s, want brake engaged")
	}
	if inst.World().PressureFrac() <= 0 {
		t.Error("pressure never rose")
	}
	// Checkpoint index advanced but stayed in range.
	if i := mustRead(SigI); i == 0 || i > NumCheckpoints {
		t.Errorf("checkpoint i = %d, want in 1..%d", i, NumCheckpoints)
	}
	// mscnt tracks simulated time.
	if got := mustRead(SigMscnt); got != 6000 {
		t.Errorf("mscnt = %d, want 6000", got)
	}
}

// TestStoppedNeverLatchesInWindow verifies the workload property that
// underpins OB2: in every paper test case the aircraft is still moving
// at the 6-s analysis horizon, so stopped is never asserted in any
// golden run.
func TestStoppedNeverLatchesInWindow(t *testing.T) {
	for _, tc := range physics.PaperGrid() {
		inst, err := NewInstance(DefaultConfig(), tc, nil)
		if err != nil {
			t.Fatal(err)
		}
		stoppedSig, err := inst.Bus().Lookup(SigStopped)
		if err != nil {
			t.Fatal(err)
		}
		tripped := false
		inst.Kernel().AddPostHook(func(sim.Millis) {
			if stoppedSig.ReadBool() {
				tripped = true
			}
		})
		inst.Run(6000)
		if tripped {
			t.Errorf("%v: stopped asserted within the 6-s window", tc)
		}
		if inst.World().Stopped() {
			t.Errorf("%v: aircraft physically stopped within 6 s", tc)
		}
	}
}

// TestHeavierIsSlower: across the workload grid, at equal engagement
// velocity a heavier aircraft retains more speed at the horizon.
func TestHeavierIsSlower(t *testing.T) {
	vAt6 := func(mass float64) float64 {
		inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: mass, VelocityMS: 70}, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(6000)
		return inst.World().VelocityMS()
	}
	light, heavy := vAt6(8000), vAt6(20000)
	if light >= heavy {
		t.Errorf("light aircraft retained %v m/s, heavy %v; want light < heavy", light, heavy)
	}
}

func TestInstanceReadHookSeesAllModules(t *testing.T) {
	seen := map[string]bool{}
	hook := func(module, _ string, _ *sim.Signal, _ sim.Millis) bool { seen[module] = true; return false }
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 10000, VelocityMS: 50}, hook)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(20) // enough ticks to cover all 7 slots
	for _, mod := range []string{ModClock, ModDistS, ModPresS, ModCalc, ModVReg, ModPresA} {
		if !seen[mod] {
			t.Errorf("module %s never performed an instrumented read", mod)
		}
	}
}

// TestLongRunWrapSafety runs past the 16-bit millisecond-counter wrap
// (65.536 s): the software's wrap-safe counter arithmetic must keep
// the system stable and deterministic across the wrap.
func TestLongRunWrapSafety(t *testing.T) {
	if testing.Short() {
		t.Skip("70 s of simulated time")
	}
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 20000, VelocityMS: 80}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(70000)
	mscnt, err := inst.Bus().Lookup(SigMscnt)
	if err != nil {
		t.Fatal(err)
	}
	// 70000 mod 65536 = 4464: the counter wrapped exactly once.
	if got := mscnt.Read(); got != 70000-65536 {
		t.Errorf("mscnt after wrap = %d, want %d", got, 70000-65536)
	}
	// The checkpoint index stayed in range and the aircraft stopped.
	iSig, err := inst.Bus().Lookup(SigI)
	if err != nil {
		t.Fatal(err)
	}
	if i := iSig.Read(); i > NumCheckpoints {
		t.Errorf("checkpoint index %d escaped range across the wrap", i)
	}
	if !inst.World().Stopped() {
		t.Errorf("aircraft still moving after 70 s: %v m/s", inst.World().VelocityMS())
	}
}

// TestNewInstanceAllocs pins the allocations of building one instance:
// every injection run that executes builds one, so a new allocation
// here is paid tens of thousands of times per campaign. The kernel and
// the bus hold their first tasks, hooks and signals inline; what
// remains is the world, the kernel, the bus, the modules, the glue's
// pre-tick hook and the instance with its snapshotter.
func TestNewInstanceAllocs(t *testing.T) {
	cfg := DefaultConfig()
	tc := physics.TestCase{MassKg: 11000, VelocityMS: 50}
	got := testing.AllocsPerRun(20, func() {
		if _, err := NewInstance(cfg, tc, nil); err != nil {
			t.Fatal(err)
		}
	})
	if want := 16.0; got != want {
		t.Errorf("NewInstance allocates %v times, want %v", got, want)
	}
}

// TestRestoredCachesRecompute: the glue's TOC2 quotient and CALC's
// set-point quotient are caches outside every snapshot, so an
// instance restored to a state its caches never saw must recompute
// both on the next tick rather than reuse what the abandoned run left.
func TestRestoredCachesRecompute(t *testing.T) {
	cfg := DefaultConfig()
	tc := physics.TestCase{MassKg: 14000, VelocityMS: 60}
	donor, err := NewInstance(cfg, tc, nil)
	if err != nil {
		t.Fatal(err)
	}
	donor.Run(500)
	snap, err := donor.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(cfg, tc, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(3000)
	g, c := inst.Stateful[1].(*glue), inst.Stateful[5].(*calc)
	staleTOC2, staleNum := g.toc2Key, c.quot.num
	if err := inst.Restore(snap); err != nil {
		t.Fatal(err)
	}
	bus := inst.Bus()
	toc2 := bus.Register(SigTOC2).Read()
	if toc2 == staleTOC2 {
		t.Fatalf("TOC2 %d at the snapshot equals the cached key; the test needs them apart", toc2)
	}
	inst.Kernel().Tick()

	if got, want := inst.World().CommandFrac(), float64(toc2)/65535; got != want {
		t.Errorf("command after restore = %v, want %v (TOC2 %d)", got, want, toc2)
	}
	if bus.Register(SigSlowSpeed).ReadBool() || bus.Register(SigStopped).ReadBool() {
		t.Fatal("the snapshot tick overrides the set point; pick a moving instant")
	}
	num := uint32(c.profile[bus.Register(SigI).Read()]) * uint32(c.windowPulses)
	if num == staleNum {
		t.Fatalf("set-point numerator %d equals the cached key; the test needs them apart", num)
	}
	want := min(num/uint32(cfg.VRefPulses), 65535)
	if got := bus.Register(SigSetValue).Read(); uint32(got) != want {
		t.Errorf("SetValue after restore = %d, want %d", got, want)
	}
}
