package arrestor

import "propane/internal/model"

// This file gives every stateful component of the arrestment software
// a State/Restore/Equal triple (model.Stateful), which is what lets an
// Instance be checkpointed and cloned for the campaign engine's
// fast-forward path. Components whose behaviour is a pure function of
// their inputs and the current tick (comTX, the slave glue pre-hook)
// carry no hidden state and are deliberately absent.

type glueState struct {
	tcntVal  uint16
	pacntVal uint16
}

func (g *glue) state() glueState { return glueState{g.tcntVal, g.pacntVal} }

// State implements model.Stateful.
func (g *glue) State() any { return g.state() }

// Equal implements model.Stateful.
func (g *glue) Equal(state any) bool { return model.EqualAs(g.state(), state) }

// Restore implements model.Stateful.
func (g *glue) Restore(state any) error {
	s := glueState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	g.tcntVal, g.pacntVal = s.tcntVal, s.pacntVal
	return nil
}

type clockState struct{ mscnt uint16 }

// State implements model.Stateful.
func (c *clock) State() any { return clockState{c.mscnt} }

// Equal implements model.Stateful.
func (c *clock) Equal(state any) bool { return model.EqualAs(clockState{c.mscnt}, state) }

// Restore implements model.Stateful.
func (c *clock) Restore(state any) error {
	s := clockState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	c.mscnt = s.mscnt
	return nil
}

type distSState struct {
	initialized bool
	lastPACNT   uint16
	pulscnt     uint16
	noPulseMs   uint16
	stopped     bool
}

func (d *distS) state() distSState {
	return distSState{d.initialized, d.lastPACNT, d.pulscnt, d.noPulseMs, d.stopped}
}

// State implements model.Stateful.
func (d *distS) State() any { return d.state() }

// Equal implements model.Stateful.
func (d *distS) Equal(state any) bool { return model.EqualAs(d.state(), state) }

// Restore implements model.Stateful.
func (d *distS) Restore(state any) error {
	s := distSState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	d.initialized, d.lastPACNT, d.pulscnt = s.initialized, s.lastPACNT, s.pulscnt
	d.noPulseMs, d.stopped = s.noPulseMs, s.stopped
	return nil
}

type presSState struct {
	hist [3]uint16
	n    int
}

// State implements model.Stateful.
func (p *presS) State() any { return presSState{p.hist, p.n} }

// Equal implements model.Stateful.
func (p *presS) Equal(state any) bool { return model.EqualAs(presSState{p.hist, p.n}, state) }

// Restore implements model.Stateful.
func (p *presS) Restore(state any) error {
	s := presSState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	p.hist, p.n = s.hist, s.n
	return nil
}

type calcState struct {
	lastMs       uint16
	lastPc       uint16
	windowPulses uint16
}

func (c *calc) state() calcState { return calcState{c.lastMs, c.lastPc, c.windowPulses} }

// State implements model.Stateful.
func (c *calc) State() any { return c.state() }

// Equal implements model.Stateful.
func (c *calc) Equal(state any) bool { return model.EqualAs(c.state(), state) }

// Restore implements model.Stateful.
func (c *calc) Restore(state any) error {
	s := calcState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	c.lastMs, c.lastPc, c.windowPulses = s.lastMs, s.lastPc, s.windowPulses
	return nil
}

type vRegState struct{ integ int32 }

// State implements model.Stateful.
func (v *vReg) State() any { return vRegState{v.integ} }

// Equal implements model.Stateful.
func (v *vReg) Equal(state any) bool { return model.EqualAs(vRegState{v.integ}, state) }

// Restore implements model.Stateful.
func (v *vReg) Restore(state any) error {
	s := vRegState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	v.integ = s.integ
	return nil
}

type presAState struct{ current uint16 }

// State implements model.Stateful.
func (p *presA) State() any { return presAState{p.current} }

// Equal implements model.Stateful.
func (p *presA) Equal(state any) bool { return model.EqualAs(presAState{p.current}, state) }

// Restore implements model.Stateful.
func (p *presA) Restore(state any) error {
	s := presAState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	p.current = s.current
	return nil
}

type comRXState struct{ lastGood uint16 }

// State implements model.Stateful.
func (c *comRX) State() any { return comRXState{c.lastGood} }

// Equal implements model.Stateful.
func (c *comRX) Equal(state any) bool { return model.EqualAs(comRXState{c.lastGood}, state) }

// Restore implements model.Stateful.
func (c *comRX) Restore(state any) error {
	s := comRXState{}
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	c.lastGood = s.lastGood
	return nil
}
