package physics

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestGrid(t *testing.T) {
	cases, err := Grid(3, 2, 100, 300, 10, 20)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(cases) != 6 {
		t.Fatalf("len = %d, want 6", len(cases))
	}
	// Corners of the grid are the bounds.
	if cases[0].MassKg != 100 || cases[0].VelocityMS != 10 {
		t.Errorf("first case = %v, want m=100 v=10", cases[0])
	}
	last := cases[len(cases)-1]
	if last.MassKg != 300 || last.VelocityMS != 20 {
		t.Errorf("last case = %v, want m=300 v=20", last)
	}
}

func TestGridSinglePoint(t *testing.T) {
	cases, err := Grid(1, 1, 5000, 9000, 40, 80)
	if err != nil {
		t.Fatalf("Grid: %v", err)
	}
	if len(cases) != 1 || cases[0].MassKg != 5000 || cases[0].VelocityMS != 40 {
		t.Errorf("cases = %v, want single m=5000 v=40", cases)
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := Grid(0, 1, 1, 2, 1, 2); err == nil {
		t.Error("Grid(0,1) succeeded")
	}
	if _, err := Grid(1, 0, 1, 2, 1, 2); err == nil {
		t.Error("Grid(1,0) succeeded")
	}
	if _, err := Grid(2, 2, 3, 1, 1, 2); err == nil {
		t.Error("Grid with reversed mass bounds succeeded")
	}
	if _, err := Grid(2, 2, 1, 2, 5, 1); err == nil {
		t.Error("Grid with reversed velocity bounds succeeded")
	}
}

func TestPaperGrid(t *testing.T) {
	cases := PaperGrid()
	if len(cases) != 25 {
		t.Fatalf("paper grid has %d cases, want 25", len(cases))
	}
	for _, tc := range cases {
		if tc.MassKg < 8000 || tc.MassKg > 20000 {
			t.Errorf("mass %v out of paper range", tc.MassKg)
		}
		if tc.VelocityMS < 40 || tc.VelocityMS > 80 {
			t.Errorf("velocity %v out of paper range", tc.VelocityMS)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("DefaultConfig invalid: %v", err)
	}
	mutations := []func(*Config){
		func(c *Config) { c.PulsesPerMeter = 0 },
		func(c *Config) { c.MaxBrakeForceN = -1 },
		func(c *Config) { c.ValveTauS = 0 },
		func(c *Config) { c.DragNsPerM = -1 },
		func(c *Config) { c.StopVelocityMS = 0 },
	}
	for i, mut := range mutations {
		c := DefaultConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestNewWorldErrors(t *testing.T) {
	if _, err := NewWorld(Config{}, TestCase{MassKg: 1, VelocityMS: 1}); err == nil {
		t.Error("NewWorld with zero config succeeded")
	}
	if _, err := NewWorld(DefaultConfig(), TestCase{MassKg: 0, VelocityMS: 50}); err == nil {
		t.Error("NewWorld with zero mass succeeded")
	}
	if _, err := NewWorld(DefaultConfig(), TestCase{MassKg: 10000, VelocityMS: 0}); err == nil {
		t.Error("NewWorld with zero velocity succeeded")
	}
}

func TestCoastingWithoutBrake(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DragNsPerM = 0
	w, err := NewWorld(cfg, TestCase{MassKg: 10000, VelocityMS: 60})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ { // 1 s
		w.Step(0.001)
	}
	if math.Abs(w.VelocityMS()-60) > 1e-6 {
		t.Errorf("velocity after coasting = %v, want 60", w.VelocityMS())
	}
	if math.Abs(w.PositionM()-60) > 0.1 {
		t.Errorf("position after 1 s at 60 m/s = %v, want ~60", w.PositionM())
	}
	// Pulses: 60 m at 8 pulses/m.
	if got := w.PulseCount(); got < 475 || got > 481 {
		t.Errorf("pulses = %d, want ~480", got)
	}
}

func TestBrakingDeceleratesAndStops(t *testing.T) {
	cfg := DefaultConfig()
	w, err := NewWorld(cfg, TestCase{MassKg: 8000, VelocityMS: 40})
	if err != nil {
		t.Fatal(err)
	}
	w.SetCommand(1.0)
	steps := 0
	for !w.Stopped() && steps < 60000 {
		w.Step(0.001)
		steps++
	}
	if !w.Stopped() {
		t.Fatalf("aircraft did not stop within 60 s (v=%v)", w.VelocityMS())
	}
	// Full brake on the lightest/slowest case stops well inside the
	// runway: a = 450kN/8t ≈ 56 m/s², stop in < 1.5 s and < 30 m.
	if w.PositionM() > 50 {
		t.Errorf("stop distance = %v m, want < 50", w.PositionM())
	}
	if w.VelocityMS() != 0 {
		t.Errorf("velocity after stop = %v, want 0", w.VelocityMS())
	}
	// Once stopped, further steps emit no pulses and do not move.
	p, pos := w.PulseCount(), w.PositionM()
	for i := 0; i < 100; i++ {
		if got := w.Step(0.001); got != 0 {
			t.Fatalf("stopped world emitted %d pulses", got)
		}
	}
	if w.PulseCount() != p || w.PositionM() != pos {
		t.Error("stopped world kept moving")
	}
}

func TestValveLag(t *testing.T) {
	cfg := DefaultConfig()
	w, err := NewWorld(cfg, TestCase{MassKg: 20000, VelocityMS: 80})
	if err != nil {
		t.Fatal(err)
	}
	w.SetCommand(1.0)
	w.Step(0.001)
	if w.PressureFrac() <= 0 || w.PressureFrac() > 0.05 {
		t.Errorf("pressure after 1 ms = %v, want small but positive", w.PressureFrac())
	}
	// After ~5 time constants the pressure approaches the command.
	for i := 0; i < int(5*cfg.ValveTauS*1000); i++ {
		w.Step(0.001)
	}
	if w.PressureFrac() < 0.95 {
		t.Errorf("pressure after 5τ = %v, want > 0.95", w.PressureFrac())
	}
	// Clamping of commands.
	w.SetCommand(2.0)
	if w.CommandFrac() != 1 {
		t.Errorf("CommandFrac = %v, want clamped to 1", w.CommandFrac())
	}
	w.SetCommand(-1)
	if w.CommandFrac() != 0 {
		t.Errorf("CommandFrac = %v, want clamped to 0", w.CommandFrac())
	}
}

// TestEnergyMonotonicity: with any constant command, velocity is
// non-increasing and position non-decreasing.
func TestEnergyMonotonicity(t *testing.T) {
	prop := func(cmd8 uint8, massSel, velSel uint8) bool {
		cmd := float64(cmd8) / 255
		tc := TestCase{
			MassKg:     8000 + float64(massSel%5)*3000,
			VelocityMS: 40 + float64(velSel%5)*10,
		}
		w, err := NewWorld(DefaultConfig(), tc)
		if err != nil {
			return false
		}
		w.SetCommand(cmd)
		vPrev, pPrev := w.VelocityMS(), w.PositionM()
		for i := 0; i < 2000; i++ {
			w.Step(0.001)
			if w.VelocityMS() > vPrev+1e-9 || w.PositionM() < pPrev-1e-9 {
				return false
			}
			vPrev, pPrev = w.VelocityMS(), w.PositionM()
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (float64, uint64) {
		w, err := NewWorld(DefaultConfig(), TestCase{MassKg: 14000, VelocityMS: 60})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3000; i++ {
			w.SetCommand(float64(i%1000) / 1000)
			w.Step(0.001)
		}
		return w.PositionM(), w.PulseCount()
	}
	p1, c1 := run()
	p2, c2 := run()
	if p1 != p2 || c1 != c2 {
		t.Errorf("runs diverged: (%v,%d) vs (%v,%d)", p1, c1, p2, c2)
	}
}

func TestTestCaseString(t *testing.T) {
	s := TestCase{MassKg: 8000, VelocityMS: 40}.String()
	if s != "m=8000kg v=40m/s" {
		t.Errorf("String() = %q", s)
	}
}

// TestWorldStateAllocs pins the cost of a checkpoint capture: the
// per-brake pressure and command slices share one backing array, so a
// capture is that array and the boxed state, for any brake count. It
// also checks that the capture neither aliases the world nor lets one
// slice grow into the other, and that it restores.
func TestWorldStateAllocs(t *testing.T) {
	for _, brakes := range []int{1, 2} {
		cfg := DefaultConfig()
		cfg.NumBrakes = brakes
		w, err := NewWorld(cfg, TestCase{MassKg: 10000, VelocityMS: 60})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < brakes; i++ {
			if err := w.SetBrakeCommand(i, 0.5+0.1*float64(i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			w.Step(0.001)
		}
		var st any
		if got := testing.AllocsPerRun(10, func() { st = w.State() }); got != 2 {
			t.Errorf("%d brakes: State allocates %v times, want 2", brakes, got)
		}
		s := st.(worldState)
		if len(s.pressure) != brakes || len(s.command) != brakes || cap(s.pressure) != brakes {
			t.Fatalf("%d brakes: capture has pressure len %d cap %d, command len %d",
				brakes, len(s.pressure), cap(s.pressure), len(s.command))
		}
		before := fmt.Sprintf("%#v", st)
		for i := 0; i < 100; i++ {
			w.Step(0.001)
		}
		if w.Equal(st) {
			t.Fatalf("%d brakes: world still equals a capture 100 steps old", brakes)
		}
		if after := fmt.Sprintf("%#v", st); after != before {
			t.Fatalf("%d brakes: stepping the world changed its capture:\n%s\n%s", brakes, before, after)
		}
		if err := w.Restore(st); err != nil {
			t.Fatal(err)
		}
		if !w.Equal(st) {
			t.Errorf("%d brakes: world differs from the capture it restored", brakes)
		}
	}
}
