// Package physics simulates the environment of the paper's target
// system (Fig. 7): an incoming aircraft engaging a cable attached to
// rotating tape drums, retarded by a hydraulic brake whose pressure is
// commanded by the control software. The paper ported the authors'
// environment simulator to the desktop; this package plays the same
// role, providing a deterministic, workload-dependent world so that
// permeability estimates are driven by realistic input distributions
// (Section 6).
//
// The model is intentionally simple but dimensionally sensible:
//
//   - the aircraft (mass m, engage velocity v0) decelerates under the
//     brake force F = maxBrakeForce · pressureFraction plus a small
//     passive drag;
//   - cable payout equals aircraft travel; the drum's tooth wheel
//     emits PulsesPerMeter pulses per metre of payout;
//   - the hydraulic pressure follows the commanded valve value with a
//     first-order lag (time constant ValveTau).
package physics

import (
	"errors"
	"fmt"
)

// TestCase is one workload point: an incoming aircraft.
type TestCase struct {
	// MassKg is the aircraft mass in kilograms.
	MassKg float64
	// VelocityMS is the engagement velocity in metres per second.
	VelocityMS float64
}

// String renders the test case compactly.
func (tc TestCase) String() string {
	return fmt.Sprintf("m=%.0fkg v=%.0fm/s", tc.MassKg, tc.VelocityMS)
}

// Grid returns nMass×nVel test cases with masses and velocities
// uniformly distributed over [massLo, massHi] kg and [velLo, velHi]
// m/s. The paper's campaign uses Grid(5, 5) over 8000–20000 kg and
// 40–80 m/s, giving 25 cases.
func Grid(nMass, nVel int, massLo, massHi, velLo, velHi float64) ([]TestCase, error) {
	if nMass < 1 || nVel < 1 {
		return nil, errors.New("physics: grid dimensions must be >= 1")
	}
	if massLo > massHi || velLo > velHi {
		return nil, errors.New("physics: grid bounds out of order")
	}
	cases := make([]TestCase, 0, nMass*nVel)
	for i := 0; i < nMass; i++ {
		m := massLo
		if nMass > 1 {
			m += (massHi - massLo) * float64(i) / float64(nMass-1)
		}
		for j := 0; j < nVel; j++ {
			v := velLo
			if nVel > 1 {
				v += (velHi - velLo) * float64(j) / float64(nVel-1)
			}
			cases = append(cases, TestCase{MassKg: m, VelocityMS: v})
		}
	}
	return cases, nil
}

// PaperGrid returns the paper's 25 test cases: 5 masses uniformly in
// 8000–20000 kg crossed with 5 velocities uniformly in 40–80 m/s.
func PaperGrid() []TestCase {
	cases, err := Grid(5, 5, 8000, 20000, 40, 80)
	if err != nil {
		// Constant arguments; failure is a programming error.
		panic("physics: paper grid invalid: " + err.Error())
	}
	return cases
}

// Config holds the arrestment-gear parameters.
type Config struct {
	// PulsesPerMeter is the tooth-wheel resolution of the rotation
	// sensor (pulses emitted per metre of cable payout).
	PulsesPerMeter float64
	// MaxBrakeForceN is the retarding force at full pressure, newtons.
	MaxBrakeForceN float64
	// ValveTauS is the first-order time constant of the hydraulic
	// valve and brake circuit, seconds.
	ValveTauS float64
	// DragNsPerM is the passive drag coefficient in N·s/m (cable and
	// tape friction, aerodynamics).
	DragNsPerM float64
	// StopVelocityMS is the velocity below which the aircraft is
	// considered physically stopped.
	StopVelocityMS float64
	// NumBrakes is the number of independently commanded brake
	// circuits (1 in the paper's single-node setup, where the master's
	// retracting force is applied on both cable ends; 2 in the real
	// master/slave configuration, one drum per node). Zero is
	// normalised to 1. Each brake contributes MaxBrakeForceN/NumBrakes
	// at full pressure.
	NumBrakes int
}

// DefaultConfig returns gear parameters sized for the paper's workload
// envelope (8–20 t aircraft at 40–80 m/s on a ~300 m runway).
func DefaultConfig() Config {
	return Config{
		PulsesPerMeter: 8,
		MaxBrakeForceN: 450e3,
		ValveTauS:      0.15,
		DragNsPerM:     300,
		StopVelocityMS: 0.5,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.PulsesPerMeter <= 0:
		return errors.New("physics: PulsesPerMeter must be positive")
	case c.MaxBrakeForceN <= 0:
		return errors.New("physics: MaxBrakeForceN must be positive")
	case c.ValveTauS <= 0:
		return errors.New("physics: ValveTauS must be positive")
	case c.DragNsPerM < 0:
		return errors.New("physics: DragNsPerM must be non-negative")
	case c.StopVelocityMS <= 0:
		return errors.New("physics: StopVelocityMS must be positive")
	case c.NumBrakes < 0:
		return errors.New("physics: NumBrakes must be non-negative")
	}
	return nil
}

// brakes returns the effective brake count (zero normalised to one).
func (c Config) brakes() int {
	if c.NumBrakes < 1 {
		return 1
	}
	return c.NumBrakes
}

// World is the state of one arrestment: one aircraft, one drum, one
// hydraulic brake. It advances in fixed steps via Step.
type World struct {
	cfg Config
	tc  TestCase

	positionM  float64
	velocityMS float64
	pressure   []float64 // actual pressure per brake, fraction of full scale
	command    []float64 // commanded pressure per brake, fraction of full scale

	pulseResidual float64
	pulseCount    uint64
}

// NewWorld creates a world for one test case. The aircraft starts at
// position 0 moving at the engagement velocity with the brake
// unpressurised.
func NewWorld(cfg Config, tc TestCase) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tc.MassKg <= 0 || tc.VelocityMS <= 0 {
		return nil, fmt.Errorf("physics: invalid test case %v", tc)
	}
	n := cfg.brakes()
	return &World{
		cfg:        cfg,
		tc:         tc,
		velocityMS: tc.VelocityMS,
		pressure:   make([]float64, n),
		command:    make([]float64, n),
	}, nil
}

// NumBrakes returns the number of brake circuits of this world.
func (w *World) NumBrakes() int { return len(w.command) }

// SetCommand sets the commanded pressure of brake 0 as a fraction of
// full scale (the glue layer derives it from the TOC2 register).
// Values outside [0, 1] are clamped. The glue calls it every tick, so
// it clamps in place rather than through SetBrakeCommand, whose error
// path keeps it from inlining.
func (w *World) SetCommand(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	w.command[0] = frac
}

// SetBrakeCommand sets the commanded pressure of brake i.
func (w *World) SetBrakeCommand(i int, frac float64) error {
	if i < 0 || i >= len(w.command) {
		return fmt.Errorf("physics: brake %d out of range [0,%d)", i, len(w.command))
	}
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	w.command[i] = frac
	return nil
}

// Step advances the world by dt seconds (the kernel calls it with
// 0.001). It returns the number of new tooth-wheel pulses emitted
// during the step.
func (w *World) Step(dt float64) int {
	// Hydraulic first-order lag toward each brake's commanded pressure.
	meanPressure := 0.0
	for i := range w.pressure {
		w.pressure[i] += (w.command[i] - w.pressure[i]) * dt / w.cfg.ValveTauS
		if w.pressure[i] < 0 {
			w.pressure[i] = 0
		}
		if w.pressure[i] > 1 {
			w.pressure[i] = 1
		}
		meanPressure += w.pressure[i]
	}
	// x/1 == x exactly, so one brake skips the divide; no other
	// expression here may be reassociated, since records pin rounding.
	if len(w.pressure) > 1 {
		meanPressure /= float64(len(w.pressure))
	}

	if w.Stopped() {
		w.velocityMS = 0
		return 0
	}

	force := w.cfg.MaxBrakeForceN*meanPressure + w.cfg.DragNsPerM*w.velocityMS
	accel := -force / w.tc.MassKg
	w.velocityMS += accel * dt
	if w.velocityMS < w.cfg.StopVelocityMS {
		w.velocityMS = 0
	}
	travel := w.velocityMS * dt
	w.positionM += travel

	w.pulseResidual += travel * w.cfg.PulsesPerMeter
	pulses := int(w.pulseResidual)
	w.pulseResidual -= float64(pulses)
	w.pulseCount += uint64(pulses)
	return pulses
}

// VelocityMS returns the aircraft velocity in m/s.
func (w *World) VelocityMS() float64 { return w.velocityMS }

// PositionM returns the cable payout (aircraft travel) in metres.
func (w *World) PositionM() float64 { return w.positionM }

// PressureFrac returns brake 0's actual pressure as a fraction of
// full scale.
func (w *World) PressureFrac() float64 { return w.pressure[0] }

// BrakePressureFrac returns brake i's actual pressure fraction.
func (w *World) BrakePressureFrac(i int) (float64, error) {
	if i < 0 || i >= len(w.pressure) {
		return 0, fmt.Errorf("physics: brake %d out of range [0,%d)", i, len(w.pressure))
	}
	return w.pressure[i], nil
}

// CommandFrac returns brake 0's commanded pressure fraction.
func (w *World) CommandFrac() float64 { return w.command[0] }

// PulseCount returns the total tooth-wheel pulses emitted so far.
func (w *World) PulseCount() uint64 { return w.pulseCount }

// Stopped reports whether the aircraft has come to rest (velocity
// below the configured stop threshold).
func (w *World) Stopped() bool { return w.velocityMS < w.cfg.StopVelocityMS }

// TestCase returns the workload point the world was created for.
func (w *World) TestCase() TestCase { return w.tc }
