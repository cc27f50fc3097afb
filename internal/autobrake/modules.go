package autobrake

import (
	"propane/internal/sim"
)

// speedScale converts pulses-per-window into the 16-bit speed unit
// used on the bus (pulses per 32 ms window × 64, leaving headroom).
const speedWindowMs = 32

// wspeed estimates the wheel speed from pulse-count deltas over a
// TCNT2-measured window.
type wspeed struct {
	sim.Reader
	wspIn, tcntIn *sim.Signal
	speedOut      *sim.Signal

	initialized    bool
	lastWSP        uint16
	lastTick       uint16
	windowPulses   uint16
	windowTicks    uint32
	ticksPerWindow uint32
	speed          uint16
}

// Step implements sim.Task.
func (w *wspeed) Step(now sim.Millis) {
	wsp := w.Read(w.wspIn, now)
	tcnt := w.Read(w.tcntIn, now)
	if !w.initialized {
		w.initialized = true
		w.lastWSP = wsp
		w.lastTick = tcnt
		return
	}
	w.windowPulses += wsp - w.lastWSP
	w.lastWSP = wsp
	w.windowTicks += uint32(tcnt - w.lastTick)
	w.lastTick = tcnt
	if w.windowTicks >= w.ticksPerWindow {
		// Speed in pulses per window, scaled ×64.
		w.speed = w.windowPulses * 64
		w.windowPulses = 0
		w.windowTicks = 0
	}
	w.speedOut.Write(w.speed)
}

// vspeed estimates the vehicle reference speed from the reference
// pulse counter on a fixed millisecond window.
type vspeed struct {
	sim.Reader
	vspIn    *sim.Signal
	speedOut *sim.Signal

	initialized  bool
	lastVSP      uint16
	windowPulses uint16
	windowMs     uint16
	elapsed      uint16
	speed        uint16
}

// Step implements sim.Task.
func (v *vspeed) Step(now sim.Millis) {
	vsp := v.Read(v.vspIn, now)
	if !v.initialized {
		v.initialized = true
		v.lastVSP = vsp
		return
	}
	v.windowPulses += vsp - v.lastVSP
	v.lastVSP = vsp
	v.elapsed++
	if v.elapsed >= v.windowMs {
		v.speed = v.windowPulses * 64
		v.windowPulses = 0
		v.elapsed = 0
	}
	v.speedOut.Write(v.speed)
}

// slipCalc computes the brake slip in per mille and latches `locked`
// after a sustained period of zero wheel speed while the vehicle still
// moves — the same persistence design that makes the arrestment
// system's `stopped` output non-permeable to transients (OB2).
type slipCalc struct {
	sim.Reader
	wheelIn, vehIn    *sim.Signal
	slipOut, lockOut  *sim.Signal
	lockPersistMs     uint16
	zeroWheelStreakMs uint16
	locked            bool
}

// Step implements sim.Task.
func (s *slipCalc) Step(now sim.Millis) {
	wheel := s.Read(s.wheelIn, now)
	veh := s.Read(s.vehIn, now)

	var slip uint16
	if veh > 0 && wheel < veh {
		slip = uint16(uint32(veh-wheel) * 1000 / uint32(veh))
	}

	if wheel == 0 && veh > 0 {
		if s.zeroWheelStreakMs < ^uint16(0) {
			s.zeroWheelStreakMs++
		}
	} else {
		s.zeroWheelStreakMs = 0
	}
	if s.zeroWheelStreakMs >= s.lockPersistMs {
		s.locked = true
	}

	s.slipOut.Write(slip)
	s.lockOut.WriteBool(s.locked)
}

// Controller modes.
const (
	modeApply   = 0
	modeRelease = 1
)

// ctrl is the slip controller: a two-state apply/release machine. The
// mode is written to the bus and read back on the next invocation —
// the module-local feedback loop of this system.
type ctrl struct {
	sim.Reader
	slipIn, lockIn, modeIn *sim.Signal
	modeOut, cmdOut        *sim.Signal

	slipApply, slipRelease uint16
	applyStep, releaseStep uint16
	cmd                    uint16
}

// Step implements sim.Task.
func (c *ctrl) Step(now sim.Millis) {
	slip := c.Read(c.slipIn, now)
	locked := c.Read(c.lockIn, now) != 0
	mode := c.Read(c.modeIn, now)
	if mode > modeRelease {
		mode = modeRelease // defensive clamp of the feedback state
	}

	switch {
	case locked || slip >= c.slipRelease:
		mode = modeRelease
	case slip <= c.slipApply:
		mode = modeApply
	}

	if mode == modeApply {
		if c.cmd <= ^uint16(0)-c.applyStep {
			c.cmd += c.applyStep
		} else {
			c.cmd = ^uint16(0)
		}
	} else {
		if c.cmd >= c.releaseStep {
			c.cmd -= c.releaseStep
		} else {
			c.cmd = 0
		}
	}

	c.modeOut.Write(mode)
	c.cmdOut.Write(c.cmd)
}

// pmod drives the valve PWM register with a slew limit.
type pmod struct {
	sim.Reader
	cmdIn  *sim.Signal
	pwmOut *sim.Signal

	maxSlew uint16
	current uint16
}

// Step implements sim.Task.
func (p *pmod) Step(now sim.Millis) {
	target := p.Read(p.cmdIn, now)
	switch {
	case target > p.current:
		d := target - p.current
		if d > p.maxSlew {
			d = p.maxSlew
		}
		p.current += d
	case target < p.current:
		d := p.current - target
		if d > p.maxSlew {
			d = p.maxSlew
		}
		p.current -= d
	}
	p.pwmOut.Write(p.current)
}
