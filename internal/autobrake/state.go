package autobrake

import "propane/internal/model"

// This file gives the brake controller's stateful components a
// State/Restore/Equal triple (model.Stateful), which the Instance's
// target.Checkpointer captures, compares and restores.

// counterState covers the Instance-held hardware counters the glue
// pre-hook advances (free timer, wheel and vehicle pulse
// accumulators). The Instance cannot implement model.Stateful itself —
// its Restore signature is taken by target.Checkpointable — so a tiny
// adapter carries the counters.
type counterState struct {
	tcntVal uint16
	wspVal  uint16
	vspVal  uint16
}

type instanceCounters struct{ in *Instance }

func (c instanceCounters) state() counterState {
	return counterState{c.in.tcntVal, c.in.wspVal, c.in.vspVal}
}

// State implements model.Stateful.
func (c instanceCounters) State() any { return c.state() }

// Equal implements model.Stateful.
func (c instanceCounters) Equal(state any) bool { return model.EqualAs(c.state(), state) }

// Restore implements model.Stateful.
func (c instanceCounters) Restore(state any) error {
	s := counterState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	c.in.tcntVal, c.in.wspVal, c.in.vspVal = s.tcntVal, s.wspVal, s.vspVal
	return nil
}

type vehicleState struct {
	speedMS            float64
	omega              float64
	pressure           float64
	command            float64
	wheelPulseResidual float64
	wheelPulses        uint64
	vehPulseResidual   float64
	vehPulses          uint64
}

// State implements model.Stateful.
func (v *vehicle) State() any { return v.state() }

// Equal implements model.Stateful.
func (v *vehicle) Equal(state any) bool { return model.EqualAs(v.state(), state) }

func (v *vehicle) state() vehicleState {
	return vehicleState{
		speedMS:            v.speedMS,
		omega:              v.omega,
		pressure:           v.pressure,
		command:            v.command,
		wheelPulseResidual: v.wheelPulseResidual,
		wheelPulses:        v.wheelPulses,
		vehPulseResidual:   v.vehPulseResidual,
		vehPulses:          v.vehPulses,
	}
}

// Restore implements model.Stateful.
func (v *vehicle) Restore(state any) error {
	s := vehicleState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	v.speedMS, v.omega = s.speedMS, s.omega
	v.pressure, v.command = s.pressure, s.command
	v.wheelPulseResidual, v.wheelPulses = s.wheelPulseResidual, s.wheelPulses
	v.vehPulseResidual, v.vehPulses = s.vehPulseResidual, s.vehPulses
	return nil
}

type wspeedState struct {
	initialized  bool
	lastWSP      uint16
	lastTick     uint16
	windowPulses uint16
	windowTicks  uint32
	speed        uint16
}

func (w *wspeed) state() wspeedState {
	return wspeedState{w.initialized, w.lastWSP, w.lastTick, w.windowPulses, w.windowTicks, w.speed}
}

// State implements model.Stateful.
func (w *wspeed) State() any { return w.state() }

// Equal implements model.Stateful.
func (w *wspeed) Equal(state any) bool { return model.EqualAs(w.state(), state) }

// Restore implements model.Stateful.
func (w *wspeed) Restore(state any) error {
	s := wspeedState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	w.initialized, w.lastWSP, w.lastTick = s.initialized, s.lastWSP, s.lastTick
	w.windowPulses, w.windowTicks, w.speed = s.windowPulses, s.windowTicks, s.speed
	return nil
}

type vspeedState struct {
	initialized  bool
	lastVSP      uint16
	windowPulses uint16
	elapsed      uint16
	speed        uint16
}

func (v *vspeed) state() vspeedState {
	return vspeedState{v.initialized, v.lastVSP, v.windowPulses, v.elapsed, v.speed}
}

// State implements model.Stateful.
func (v *vspeed) State() any { return v.state() }

// Equal implements model.Stateful.
func (v *vspeed) Equal(state any) bool { return model.EqualAs(v.state(), state) }

// Restore implements model.Stateful.
func (v *vspeed) Restore(state any) error {
	s := vspeedState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	v.initialized, v.lastVSP = s.initialized, s.lastVSP
	v.windowPulses, v.elapsed, v.speed = s.windowPulses, s.elapsed, s.speed
	return nil
}

type slipCalcState struct {
	zeroWheelStreakMs uint16
	locked            bool
}

// State implements model.Stateful.
func (s *slipCalc) State() any { return slipCalcState{s.zeroWheelStreakMs, s.locked} }

// Equal implements model.Stateful.
func (s *slipCalc) Equal(state any) bool {
	return model.EqualAs(slipCalcState{s.zeroWheelStreakMs, s.locked}, state)
}

// Restore implements model.Stateful.
func (s *slipCalc) Restore(state any) error {
	st := slipCalcState{}
	if err := model.RestoreAs(&st, state); err != nil {
		return err
	}
	s.zeroWheelStreakMs, s.locked = st.zeroWheelStreakMs, st.locked
	return nil
}

type ctrlState struct{ cmd uint16 }

// State implements model.Stateful.
func (c *ctrl) State() any { return ctrlState{c.cmd} }

// Equal implements model.Stateful.
func (c *ctrl) Equal(state any) bool { return model.EqualAs(ctrlState{c.cmd}, state) }

// Restore implements model.Stateful.
func (c *ctrl) Restore(state any) error {
	s := ctrlState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	c.cmd = s.cmd
	return nil
}

type pmodState struct{ current uint16 }

// State implements model.Stateful.
func (p *pmod) State() any { return pmodState{p.current} }

// Equal implements model.Stateful.
func (p *pmod) Equal(state any) bool { return model.EqualAs(pmodState{p.current}, state) }

// Restore implements model.Stateful.
func (p *pmod) Restore(state any) error {
	s := pmodState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	p.current = s.current
	return nil
}
