package autobrake

import (
	"reflect"
	"testing"

	"propane/internal/physics"
	"propane/internal/sim"
)

func TestTopologyShape(t *testing.T) {
	sys := Topology()
	if got, want := sys.TotalPairs(), 14; got != want {
		t.Errorf("TotalPairs() = %d, want %d", got, want)
	}
	if got, want := sys.SystemInputs(), []string{SigTCNT2, SigVSP, SigWSP}; !reflect.DeepEqual(got, want) {
		t.Errorf("SystemInputs() = %v, want %v", got, want)
	}
	if got, want := sys.SystemOutputs(), []string{SigPWM}; !reflect.DeepEqual(got, want) {
		t.Errorf("SystemOutputs() = %v, want %v", got, want)
	}
	if !sys.HasLocalFeedback(ModCtrl) {
		t.Error("CTRL has no local feedback, want mode loop")
	}
	for _, mod := range []string{ModWSpeed, ModVSpeed, ModSlip, ModPMod} {
		if sys.HasLocalFeedback(mod) {
			t.Errorf("HasLocalFeedback(%s) = true, want false", mod)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	mutations := map[string]func(*Config){
		"zero radius":       func(c *Config) { c.WheelRadiusM = 0 },
		"zero inertia":      func(c *Config) { c.WheelInertia = 0 },
		"zero pulses":       func(c *Config) { c.PulsesPerRev = 0 },
		"mu order":          func(c *Config) { c.MuSlide = c.MuMax + 0.1 },
		"slip opt":          func(c *Config) { c.SlipOpt = 1 },
		"zero torque":       func(c *Config) { c.MaxBrakeTorqueNm = 0 },
		"zero tau":          func(c *Config) { c.ValveTauS = 0 },
		"zero ticks":        func(c *Config) { c.TCNTTicksPerMs = 0 },
		"threshold order":   func(c *Config) { c.SlipRelease = c.SlipApply },
		"zero apply step":   func(c *Config) { c.ApplyStep = 0 },
		"zero release step": func(c *Config) { c.ReleaseStep = 0 },
		"zero lock persist": func(c *Config) { c.LockPersistMs = 0 },
		"zero slew":         func(c *Config) { c.MaxSlew = 0 },
		"slot out of range": func(c *Config) { c.SlotPMod = NumSlots },
		"negative slot":     func(c *Config) { c.SlotPMod = -1 },
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

func TestNewInstanceErrors(t *testing.T) {
	bad := DefaultConfig()
	bad.MaxSlew = 0
	if _, err := NewInstance(bad, physics.TestCase{MassKg: 1500, VelocityMS: 30}, nil); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := NewInstance(DefaultConfig(), physics.TestCase{}, nil); err == nil {
		t.Error("invalid test case accepted")
	}
}

func TestMuCurve(t *testing.T) {
	v := &vehicle{cfg: DefaultConfig()}
	if got := v.mu(0); got != 0 {
		t.Errorf("mu(0) = %v, want 0", got)
	}
	// Peak at the optimum slip.
	peak := v.mu(v.cfg.SlipOpt)
	if peak != v.cfg.MuMax {
		t.Errorf("mu(opt) = %v, want %v", peak, v.cfg.MuMax)
	}
	if v.mu(0.05) >= peak || v.mu(0.6) >= peak {
		t.Error("mu curve not peaked at the optimum")
	}
	// Full slide bottoms out at MuSlide (floating-point tolerance).
	if got := v.mu(1); got < v.cfg.MuSlide-1e-9 || got > v.cfg.MuSlide+1e-9 {
		t.Errorf("mu(1) = %v, want %v", got, v.cfg.MuSlide)
	}
}

func TestPanicStopDecelerates(t *testing.T) {
	cases, err := Grid(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		inst, err := NewInstance(DefaultConfig(), tc, nil)
		if err != nil {
			t.Fatal(err)
		}
		v0 := inst.VehicleSpeedMS()
		inst.Run(4000)
		if got := inst.VehicleSpeedMS(); got >= v0-5 {
			t.Errorf("%v: vehicle barely decelerated: %v -> %v", tc, v0, got)
		}
		// The controller actually modulated the brake.
		pwm, err := inst.Bus().Lookup(SigPWM)
		if err != nil {
			t.Fatal(err)
		}
		_ = pwm
		if inst.PressureFrac() < 0 || inst.PressureFrac() > 1 {
			t.Errorf("%v: pressure %v out of range", tc, inst.PressureFrac())
		}
	}
}

func TestAntiLockPreventsSustainedLock(t *testing.T) {
	// With the controller active, the wheel never stays locked long
	// enough to latch `locked` while the vehicle still moves fast.
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 1500, VelocityMS: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lockSig, err := inst.Bus().Lookup(SigLocked)
	if err != nil {
		t.Fatal(err)
	}
	tripped := false
	inst.Kernel().AddPostHook(func(sim.Millis) {
		if lockSig.ReadBool() {
			tripped = true
		}
	})
	inst.Run(3000)
	if tripped {
		t.Error("locked latched during a controlled stop")
	}
}

func TestControllerModulates(t *testing.T) {
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 1500, VelocityMS: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	modeSig, err := inst.Bus().Lookup(SigMode)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint16]bool{}
	inst.Kernel().AddPostHook(func(sim.Millis) {
		seen[modeSig.Read()] = true
	})
	inst.Run(3000)
	if !seen[modeApply] || !seen[modeRelease] {
		t.Errorf("controller modes seen = %v, want both apply and release", seen)
	}
}

func TestInstanceDeterminism(t *testing.T) {
	run := func() map[string]uint16 {
		inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 1100, VelocityMS: 22}, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(1500)
		return inst.Bus().Snapshot()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("identical runs diverged")
	}
}

func TestReadHookCoverage(t *testing.T) {
	seen := map[string]bool{}
	hook := func(module, _ string, _ *sim.Signal, _ sim.Millis) bool { seen[module] = true; return false }
	inst, err := NewInstance(DefaultConfig(), physics.TestCase{MassKg: 1500, VelocityMS: 30}, hook)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(10)
	for _, mod := range []string{ModWSpeed, ModVSpeed, ModSlip, ModCtrl, ModPMod} {
		if !seen[mod] {
			t.Errorf("module %s never performed an instrumented read", mod)
		}
	}
}

func TestTargetAdapter(t *testing.T) {
	target := Target(DefaultConfig())
	if target.Name != "autobrake" {
		t.Errorf("Name = %q", target.Name)
	}
	if got := target.Topology().TotalPairs(); got != 14 {
		t.Errorf("adapter topology pairs = %d, want 14", got)
	}
	inst, err := target.New(physics.TestCase{MassKg: 1500, VelocityMS: 30}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(100)
	if _, err := inst.Bus().Lookup(SigPWM); err != nil {
		t.Errorf("adapter instance bus incomplete: %v", err)
	}
}
