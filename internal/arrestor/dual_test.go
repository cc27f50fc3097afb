package arrestor

import (
	"reflect"
	"testing"
	"testing/quick"

	"propane/internal/physics"
	"propane/internal/sim"
)

func TestDualTopology(t *testing.T) {
	sys := DualTopology()
	if got, want := sys.TotalPairs(), 31; got != want {
		t.Errorf("TotalPairs() = %d, want %d", got, want)
	}
	wantIn := []string{SigADC, SigADCB, SigPACNT, SigTCNT, SigTIC1}
	if got := sys.SystemInputs(); !reflect.DeepEqual(got, wantIn) {
		t.Errorf("SystemInputs() = %v, want %v", got, wantIn)
	}
	wantOut := []string{SigTOC2, SigTOC2B}
	if got := sys.SystemOutputs(); !reflect.DeepEqual(got, wantOut) {
		t.Errorf("SystemOutputs() = %v, want %v", got, wantOut)
	}
	// SetValue fans out to both V_REG and COM_TX.
	recv := sys.Receivers(SigSetValue)
	if len(recv) != 2 {
		t.Errorf("Receivers(SetValue) = %v, want V_REG and COM_TX", recv)
	}
}

func TestParity15(t *testing.T) {
	tests := []struct {
		v    uint16
		want uint16
	}{
		{0x0000, 0},
		{0x0002, 1},
		{0x0006, 0},
		{0xFFFE, 1}, // 15 one-bits above bit 0
		{0x8000, 1},
		{0x8002, 0},
	}
	for _, tt := range tests {
		if got := parity15(tt.v); got != tt.want {
			t.Errorf("parity15(%#x) = %d, want %d", tt.v, got, tt.want)
		}
	}
}

// TestParityDetectsEverySingleFlip: the property behind the COM_RX
// containment barrier — flipping any single bit of a well-formed frame
// breaks the parity relation.
func TestParityDetectsEverySingleFlip(t *testing.T) {
	prop := func(v uint16, bit uint8) bool {
		payload := v & 0xFFFE
		frame := payload | parity15(payload)
		corrupted := frame ^ (1 << (bit % 16))
		return parity15(corrupted&0xFFFE) != corrupted&1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestComLinkEndToEnd(t *testing.T) {
	bus := sim.NewBus()
	setValue := bus.Register(SigSetValue)
	frame := bus.Register(SigTxFrame)
	setValueB := bus.Register(SigSetValueB)
	tx := &comTX{Reader: sim.NewReader(ModComTX, nil), in: setValue, out: frame}
	rx := &comRX{Reader: sim.NewReader(ModComRX, nil), in: frame, out: setValueB}

	setValue.Write(12346)
	tx.Step(0)
	rx.Step(0)
	// The low bit carries parity: payload is the value with bit 0
	// cleared.
	if got := setValueB.Read(); got != 12346 {
		t.Errorf("received %d, want 12346", got)
	}
	// Corrupt the frame: the receiver holds the last good value.
	if err := frame.FlipBit(9); err != nil {
		t.Fatal(err)
	}
	rx.Step(1)
	if got := setValueB.Read(); got != 12346 {
		t.Errorf("after corrupted frame: %d, want held 12346", got)
	}
	// Next good frame resumes tracking.
	setValue.Write(20000)
	tx.Step(2)
	rx.Step(2)
	if got := setValueB.Read(); got != 20000 {
		t.Errorf("after recovery: %d, want 20000", got)
	}
}

func TestDualConfigValidation(t *testing.T) {
	if err := DefaultDualConfig().Validate(); err != nil {
		t.Fatalf("DefaultDualConfig invalid: %v", err)
	}
	c := DefaultDualConfig()
	c.Physics.NumBrakes = 1
	if err := c.Validate(); err == nil {
		t.Error("dual config with one brake accepted")
	}
	c = DefaultDualConfig()
	c.SlotVRegB = NumSlots
	if err := c.Validate(); err == nil {
		t.Error("dual config with out-of-range slot accepted")
	}
	c = DefaultDualConfig()
	c.MaxSlew = 0
	if err := c.Validate(); err == nil {
		t.Error("dual config with invalid base accepted")
	}
	if _, err := NewDualInstance(c, physics.TestCase{MassKg: 10000, VelocityMS: 50}, nil); err == nil {
		t.Error("NewDualInstance accepted invalid config")
	}
}

func TestDualClosedLoop(t *testing.T) {
	inst, err := NewDualInstance(DefaultDualConfig(), physics.TestCase{MassKg: 14000, VelocityMS: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(6000)
	bus := inst.Bus()
	read := func(name string) uint16 {
		s, err := bus.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%s): %v", name, err)
		}
		return s.Read()
	}
	// Both nodes drive their valves.
	if read(SigTOC2) == 0 || read(SigTOC2B) == 0 {
		t.Errorf("TOC2=%d TOC2_B=%d, want both engaged", read(SigTOC2), read(SigTOC2B))
	}
	// The slave follows the master's set point (modulo the parity
	// quantisation of the low bit and the one-cycle link delay).
	sv, svB := read(SigSetValue), read(SigSetValueB)
	diff := int32(sv) - int32(svB)
	if diff < 0 {
		diff = -diff
	}
	if diff > 4096 {
		t.Errorf("slave set point %d far from master %d", svB, sv)
	}
	// Both brake circuits pressurised.
	p0, err := inst.World().BrakePressureFrac(0)
	if err != nil {
		t.Fatal(err)
	}
	p1, err := inst.World().BrakePressureFrac(1)
	if err != nil {
		t.Fatal(err)
	}
	if p0 <= 0 || p1 <= 0 {
		t.Errorf("brake pressures %v/%v, want both positive", p0, p1)
	}
	// The aircraft decelerated.
	if inst.World().VelocityMS() >= 60 {
		t.Error("dual-node system did not decelerate the aircraft")
	}
}

func TestDualDeterminism(t *testing.T) {
	run := func() map[string]uint16 {
		inst, err := NewDualInstance(DefaultDualConfig(), physics.TestCase{MassKg: 9000, VelocityMS: 45}, nil)
		if err != nil {
			t.Fatal(err)
		}
		inst.Run(1500)
		return inst.Bus().Snapshot()
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Error("dual runs diverged")
	}
}

func TestBrakeAccessorErrors(t *testing.T) {
	w, err := physics.NewWorld(physics.DefaultConfig(), physics.TestCase{MassKg: 10000, VelocityMS: 50})
	if err != nil {
		t.Fatal(err)
	}
	if w.NumBrakes() != 1 {
		t.Errorf("NumBrakes = %d, want 1", w.NumBrakes())
	}
	if err := w.SetBrakeCommand(1, 0.5); err == nil {
		t.Error("SetBrakeCommand(1) on single-brake world succeeded")
	}
	if _, err := w.BrakePressureFrac(-1); err == nil {
		t.Error("BrakePressureFrac(-1) succeeded")
	}
}
