package arrestor

import (
	"fmt"

	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
)

// The dual-node configuration reconstructs the *real* deployment the
// paper describes in Section 7.1: "In the real system, there are two
// nodes; a master node calculating the desired pressure to be applied,
// and a slave node receiving the desired pressure from the master.
// Each node controls one of the rotating drums." The paper's
// experiments removed the slave; this package provides both, so the
// framework can be exercised on a genuinely distributed topology with
// two system outputs.
//
// The master runs CLOCK, DIST_S, CALC and its own pressure chain
// (PRES_S, V_REG, PRES_A -> TOC2). COM_TX transmits the pressure set
// point to the slave over a parity-protected 16-bit link frame;
// COM_RX validates the parity and publishes SetValue_B. The slave runs
// its own pressure chain (PRES_S_B, V_REG_B, PRES_A_B -> TOC2_B)
// against the second drum's brake circuit.

// Additional module names of the dual-node configuration.
const (
	ModComTX  = "COM_TX"
	ModComRX  = "COM_RX"
	ModPresSB = "PRES_S_B"
	ModVRegB  = "V_REG_B"
	ModPresAB = "PRES_A_B"
)

// Additional signal names of the dual-node configuration.
const (
	// SigTxFrame is the parity-protected link frame carrying the set
	// point from master to slave.
	SigTxFrame = "TXFRAME"
	// SigSetValueB is the validated set point on the slave node.
	SigSetValueB = "SetValue_B"
	// SigADCB is the slave's A/D conversion of its applied pressure
	// (system input).
	SigADCB = "ADC_B"
	// SigInValueB is the slave's validated pressure value.
	SigInValueB = "InValue_B"
	// SigOutValueB is the slave regulator's output.
	SigOutValueB = "OutValue_B"
	// SigTOC2B is the slave's output-compare register (system output).
	SigTOC2B = "TOC2_B"
)

// DualTopology returns the master/slave system model: 11 modules, 31
// input/output pairs, system inputs PACNT, TIC1, TCNT, ADC and ADC_B,
// and system outputs TOC2 and TOC2_B.
func DualTopology() *model.System {
	sys, err := model.NewBuilder("arrestor-dual").
		AddModule(ModClock,
			[]string{SigMsSlotNbr},
			[]string{SigMscnt, SigMsSlotNbr}).
		AddModule(ModDistS,
			[]string{SigPACNT, SigTIC1, SigTCNT},
			[]string{SigPulscnt, SigSlowSpeed, SigStopped}).
		AddModule(ModPresS,
			[]string{SigADC},
			[]string{SigInValue}).
		AddModule(ModCalc,
			[]string{SigPulscnt, SigMscnt, SigSlowSpeed, SigStopped, SigI},
			[]string{SigI, SigSetValue}).
		AddModule(ModVReg,
			[]string{SigSetValue, SigInValue},
			[]string{SigOutValue}).
		AddModule(ModPresA,
			[]string{SigOutValue},
			[]string{SigTOC2}).
		AddModule(ModComTX,
			[]string{SigSetValue},
			[]string{SigTxFrame}).
		AddModule(ModComRX,
			[]string{SigTxFrame},
			[]string{SigSetValueB}).
		AddModule(ModPresSB,
			[]string{SigADCB},
			[]string{SigInValueB}).
		AddModule(ModVRegB,
			[]string{SigSetValueB, SigInValueB},
			[]string{SigOutValueB}).
		AddModule(ModPresAB,
			[]string{SigOutValueB},
			[]string{SigTOC2B}).
		Build()
	if err != nil {
		panic("arrestor: dual topology invalid: " + err.Error())
	}
	return sys
}

// parity15 returns the even-parity bit over bits 1..15 of v.
func parity15(v uint16) uint16 {
	v >>= 1
	v ^= v >> 8
	v ^= v >> 4
	v ^= v >> 2
	v ^= v >> 1
	return v & 1
}

// comTX is the COM_TX module: it encodes the pressure set point into
// the link frame, carrying the 15 high bits of the value with an even
// parity bit in bit 0. Period 7 ms (one frame per slot cycle).
type comTX struct {
	sim.Reader
	in  *sim.Signal
	out *sim.Signal
}

// Step implements sim.Task.
func (c *comTX) Step(now sim.Millis) {
	v := c.Read(c.in, now) & 0xFFFE
	c.out.Write(v | parity15(v))
}

// comRX is the COM_RX module: it validates the link frame's parity and
// publishes the carried set point; frames failing the check are
// dropped and the last good value is held. The parity check makes the
// link an error-containment barrier: any single bit-flip in the frame
// is detected, so the frame->SetValue_B permeability is exactly zero —
// the "wrapper" style containment of the paper's Section 4.1 ([17]).
type comRX struct {
	sim.Reader
	in  *sim.Signal
	out *sim.Signal

	lastGood uint16
}

// Step implements sim.Task.
func (c *comRX) Step(now sim.Millis) {
	f := c.Read(c.in, now)
	if parity15(f&0xFFFE) == f&1 {
		c.lastGood = f & 0xFFFE
	}
	c.out.Write(c.lastGood)
}

// DualConfig extends Config with the slave-node slot assignments.
type DualConfig struct {
	Config
	// SlotComTX, SlotComRX, SlotPresSB, SlotVRegB and SlotPresAB
	// assign the additional 7-ms-period modules to execution slots.
	SlotComTX, SlotComRX, SlotPresSB, SlotVRegB, SlotPresAB int
}

// DefaultDualConfig returns the dual-node parameter set: the master
// modules keep their single-node slots, the communication and slave
// modules fill the remaining slots, and the physics gains a second
// brake circuit.
func DefaultDualConfig() DualConfig {
	return DualFrom(DefaultConfig())
}

// DualFrom wraps a single-node configuration into the dual-node
// parameter set with the default slave slot assignments, forcing the
// second brake circuit.
func DualFrom(cfg Config) DualConfig {
	cfg.Physics.NumBrakes = 2
	return DualConfig{
		Config:     cfg,
		SlotComTX:  0,
		SlotComRX:  2,
		SlotPresSB: 2,
		SlotVRegB:  4,
		SlotPresAB: 6,
	}
}

// Validate reports configuration errors.
func (c DualConfig) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.Physics.NumBrakes != 2 {
		return fmt.Errorf("arrestor: dual config needs 2 brakes, has %d", c.Physics.NumBrakes)
	}
	for _, s := range []struct {
		name string
		slot int
	}{
		{ModComTX, c.SlotComTX}, {ModComRX, c.SlotComRX},
		{ModPresSB, c.SlotPresSB}, {ModVRegB, c.SlotVRegB}, {ModPresAB, c.SlotPresAB},
	} {
		if s.slot < 0 || s.slot >= NumSlots {
			return fmt.Errorf("arrestor: slot %d for %s out of range [0,%d)", s.slot, s.name, NumSlots)
		}
	}
	return nil
}

// NewDualInstance builds a master/slave instance for one test case.
func NewDualInstance(cfg DualConfig, tc physics.TestCase, onRead sim.ReadHook) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	inst, err := NewInstance(cfg.Config, tc, onRead)
	if err != nil {
		return nil, err
	}
	bus := inst.Bus()
	kernel := inst.Kernel()

	// Additional signals of the slave node and link.
	txFrame := bus.Register(SigTxFrame)
	setValueB := bus.Register(SigSetValueB)
	adcB := bus.Register(SigADCB)
	inValueB := bus.Register(SigInValueB)
	outValueB := bus.Register(SigOutValueB)
	toc2B := bus.Register(SigTOC2B)

	setValue, err := bus.Lookup(SigSetValue)
	if err != nil {
		return nil, err
	}

	// Slave-side hardware glue: refresh ADC_B from brake circuit 1 and
	// apply TOC2_B to it. Registered after the master glue pre-hook.
	world := inst.World()
	kernel.AddPreHook(func(sim.Millis) {
		if err := world.SetBrakeCommand(1, float64(toc2B.Read())/65535); err != nil {
			return
		}
		p, err := world.BrakePressureFrac(1)
		if err != nil {
			return
		}
		sample := uint16(p*255 + 0.5)
		if sample > 255 {
			sample = 255
		}
		adcB.Write(sample << 8)
	})

	tx := &comTX{
		Reader: sim.NewReader(ModComTX, onRead),
		in:     setValue,
		out:    txFrame,
	}
	rx := &comRX{
		Reader: sim.NewReader(ModComRX, onRead),
		in:     txFrame,
		out:    setValueB,
	}
	psB := &presS{
		Reader:     sim.NewReader(ModPresSB, onRead),
		adcIn:      adcB,
		inValueOut: inValueB,
	}
	vrB := &vReg{
		Reader:      sim.NewReader(ModVRegB, onRead),
		setValueIn:  setValueB,
		inValueIn:   inValueB,
		outValueOut: outValueB,
	}
	paB := &presA{
		Reader:     sim.NewReader(ModPresAB, onRead),
		outValueIn: outValueB,
		toc2Out:    toc2B,
		maxSlew:    cfg.MaxSlew,
	}

	for _, sched := range []struct {
		slot int
		task sim.Task
	}{
		{cfg.SlotComTX, tx}, {cfg.SlotComRX, rx},
		{cfg.SlotPresSB, psB}, {cfg.SlotVRegB, vrB}, {cfg.SlotPresAB, paB},
	} {
		if err := kernel.AddSlotted(sched.slot, sched.task); err != nil {
			return nil, fmt.Errorf("arrestor: scheduling %s: %w", sched.task.Name(), err)
		}
	}
	// Slave-side hidden state; tx and the slave glue pre-hook are
	// stateless (pure functions of their inputs).
	inst.stateful = append(inst.stateful, rx, psB, vrB, paB)
	return inst, nil
}
