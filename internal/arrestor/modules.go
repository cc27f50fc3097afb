package arrestor

import (
	"propane/internal/sim"
)

// moduleBase provides instrumented input reads: every read of an input
// signal passes through the injection/logging hook, mirroring the
// high-level software traps PROPANE inserts at module boundaries.
type moduleBase struct {
	name   string
	onRead sim.ReadHook
}

func (m *moduleBase) read(s *sim.Signal, now sim.Millis) uint16 {
	if m.onRead != nil && m.onRead(m.name, s.Name(), s, now) {
		m.onRead = nil
	}
	return s.Read()
}

func (m *moduleBase) readBool(s *sim.Signal, now sim.Millis) bool {
	return m.read(s, now) != 0
}

// Name implements sim.Task.
func (m *moduleBase) Name() string { return m.name }

// clock is the CLOCK module: provides the millisecond clock mscnt
// (from an internal counter) and the execution slot number
// ms_slot_nbr, which it derives from its own previous output — the
// module-local feedback loop of the permeability graph. Period 1 ms.
type clock struct {
	moduleBase
	slotIn     *sim.Signal // ms_slot_nbr, input 1 (feedback)
	mscntOut   *sim.Signal // output 1
	slotOut    *sim.Signal // output 2 (same signal as slotIn)
	mscnt      uint16      // internal state: millisecond counter
	slotPeriod uint16
}

// Step implements sim.Task.
func (c *clock) Step(now sim.Millis) {
	slot := c.read(c.slotIn, now)
	slot = (slot + 1) % c.slotPeriod
	c.mscnt++
	c.mscntOut.Write(c.mscnt)
	c.slotOut.Write(slot)
}

// distS is the DIST_S module: reads PACNT, TIC1 and TCNT from the
// rotation sensor and counter hardware, and provides the total pulse
// count pulscnt plus the booleans slow_speed and stopped. Period 1 ms.
//
// pulscnt accumulates wrap-safe PACNT deltas. slow_speed is asserted
// when the gap between now (TCNT) and the last pulse capture (TIC1)
// exceeds the configured threshold. stopped latches only after a full
// StopPersistMs without a single pulse — a persistence requirement
// that transient input errors cannot satisfy, which is why all
// permeabilities into stopped are zero (paper OB2: "although injected
// errors can alter the perceived velocity, it is hard to make it
// zero").
type distS struct {
	moduleBase
	pacntIn, tic1In, tcntIn         *sim.Signal
	pulscntOut, slowOut, stoppedOut *sim.Signal

	slowGapTicks  uint16
	stopPersistMs uint16

	initialized bool
	lastPACNT   uint16
	pulscnt     uint16
	noPulseMs   uint16
	stopped     bool
}

// Step implements sim.Task.
func (d *distS) Step(now sim.Millis) {
	pacnt := d.read(d.pacntIn, now)
	tic1 := d.read(d.tic1In, now)
	tcnt := d.read(d.tcntIn, now)

	if !d.initialized {
		d.lastPACNT = pacnt
		d.initialized = true
	}
	delta := pacnt - d.lastPACNT // uint16 arithmetic: wrap-safe
	d.lastPACNT = pacnt
	d.pulscnt += delta

	gap := tcnt - tic1 // ticks since the last captured pulse
	slow := gap > d.slowGapTicks

	if delta == 0 {
		if d.noPulseMs < ^uint16(0) {
			d.noPulseMs++
		}
	} else {
		d.noPulseMs = 0
	}
	if d.noPulseMs >= d.stopPersistMs {
		d.stopped = true
	}

	d.pulscntOut.Write(d.pulscnt)
	d.slowOut.WriteBool(slow)
	d.stoppedOut.WriteBool(d.stopped)
}

// presS is the PRES_S module: reads the applied pressure via the A/D
// converter and provides the validated value InValue. Period 7 ms.
//
// The A/D result is 8-bit left-justified (low byte zero), so InValue
// is in 0–255 engineering units; sensor conditioning is a median-of-3
// filter across invocations. Quantisation absorbs errors in the low
// byte entirely and the median rejects most single-sample transients,
// which is what drives the near-zero ADC→InValue permeability the
// paper measures for this module (Table 2: PRES_S row 0.000).
type presS struct {
	moduleBase
	adcIn      *sim.Signal
	inValueOut *sim.Signal

	hist [3]uint16
	n    int
}

// Step implements sim.Task.
func (p *presS) Step(now sim.Millis) {
	raw := p.read(p.adcIn, now) >> 8 // 8-bit left-justified result
	if p.n < len(p.hist) {
		p.hist[p.n] = raw
		p.n++
	} else {
		p.hist[0], p.hist[1], p.hist[2] = p.hist[1], p.hist[2], raw
	}
	p.inValueOut.Write(p.median())
}

func (p *presS) median() uint16 {
	switch p.n {
	case 0:
		return 0
	case 1:
		return p.hist[0]
	case 2:
		// With two samples, take the newer (filter still priming).
		return p.hist[1]
	}
	a, b, c := p.hist[0], p.hist[1], p.hist[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

// calc is the CALC module: uses mscnt, pulscnt, slow_speed and stopped
// to calculate the pressure set point SetValue at six predefined
// checkpoints along the runway, detected by comparing pulscnt with the
// predefined checkpoint pulse counts. The current checkpoint is stored
// in i, which the module reads back on the next invocation — the
// second module-local feedback loop. Background task: runs every tick
// when the slotted modules are dormant.
type calc struct {
	moduleBase
	pulscntIn, mscntIn, slowIn, stoppedIn, iIn *sim.Signal
	iOut, setValueOut                          *sim.Signal

	checkpoints [NumCheckpoints]uint16
	profile     [NumCheckpoints + 1]uint16
	windowMs    uint16
	vRefPulses  uint16
	slowTarget  uint16

	lastMs, lastPc uint16
	windowPulses   uint16
}

// Step implements sim.Task.
func (c *calc) Step(now sim.Millis) {
	pc := c.read(c.pulscntIn, now)          // input 1
	ms := c.read(c.mscntIn, now)            // input 2
	slow := c.readBool(c.slowIn, now)       // input 3
	stopped := c.readBool(c.stoppedIn, now) // input 4
	i := c.read(c.iIn, now)                 // input 5 (feedback)

	if i > NumCheckpoints {
		i = NumCheckpoints // defensive clamp of the checkpoint index
	}
	for i < NumCheckpoints && pc >= c.checkpoints[i] {
		i++
	}

	// Speed estimate: pulses accumulated over the last full window.
	if ms-c.lastMs >= c.windowMs {
		c.windowPulses = pc - c.lastPc
		c.lastMs = ms
		c.lastPc = pc
	}

	target := uint32(c.profile[i]) * uint32(c.windowPulses) / uint32(c.vRefPulses)
	if target > 65535 {
		target = 65535
	}
	if slow {
		target = uint32(c.slowTarget)
	}
	if stopped {
		target = 0
	}

	c.iOut.Write(i)
	c.setValueOut.Write(uint16(target))
}

// vReg is the V_REG module: the pressure regulator. It combines the
// set point SetValue with the measured pressure InValue into the valve
// command OutValue using feedforward plus an integral trim. Period
// 7 ms.
type vReg struct {
	moduleBase
	setValueIn, inValueIn *sim.Signal
	outValueOut           *sim.Signal

	integ int32
}

const (
	vregIntegShift = 4     // integral gain: err/16 per sample
	vregIntegLimit = 16384 // anti-windup clamp
	vregTrimShift  = 2     // trim contribution: integ/4
)

// Step implements sim.Task.
func (v *vReg) Step(now sim.Millis) {
	sv := int32(v.read(v.setValueIn, now))
	iv := int32(v.read(v.inValueIn, now)) << 8 // InValue is 8-bit units

	err := sv - iv
	v.integ += err >> vregIntegShift
	if v.integ > vregIntegLimit {
		v.integ = vregIntegLimit
	}
	if v.integ < -vregIntegLimit {
		v.integ = -vregIntegLimit
	}

	out := sv + v.integ>>vregTrimShift
	if out < 0 {
		out = 0
	}
	if out > 65535 {
		out = 65535
	}
	v.outValueOut.Write(uint16(out))
}

// presA is the PRES_A module: the pressure actuator driver. It moves
// the output-compare register TOC2 toward OutValue with a bounded slew
// rate (valve protection). Period 7 ms.
type presA struct {
	moduleBase
	outValueIn *sim.Signal
	toc2Out    *sim.Signal

	maxSlew uint16
	current uint16 // internal state mirroring TOC2
}

// Step implements sim.Task.
func (p *presA) Step(now sim.Millis) {
	target := p.read(p.outValueIn, now)
	switch {
	case target > p.current:
		step := target - p.current
		if step > p.maxSlew {
			step = p.maxSlew
		}
		p.current += step
	case target < p.current:
		step := p.current - target
		if step > p.maxSlew {
			step = p.maxSlew
		}
		p.current -= step
	}
	p.toc2Out.Write(p.current)
}
