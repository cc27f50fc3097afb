package synth

// Environment models for compiled targets. An environment is the
// pre-tick hook that refreshes the topology's boundary input signals
// (simulated hardware registers) and consumes its boundary outputs —
// the role the hand-written targets implement as "glue" code. Three
// kinds are provided:
//
//   - "arrestor": the cable-physics world of internal/physics with a
//     register glue layer replicating internal/arrestor's to the bit,
//     so a DSL re-expression of the paper's target sees exactly the
//     same sensor values the hand-written one does;
//   - "ramp": the deterministic command ramp of internal/hostile,
//     folding the workload point into a base command value;
//   - "waveform": a seeded pseudo-random stimulus for arbitrary
//     (e.g. fuzz-generated) topologies, driving any number of bound
//     signals with workload-dependent, reproducible waveforms.

import (
	"fmt"
	"math"
	"sort"

	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
)

// envRuntime is one instantiated environment: its per-tick hook and
// the hidden state it contributes to checkpoints.
type envRuntime struct {
	pre      sim.Hook
	stateful []model.Stateful
}

// envDef describes one environment kind's parameter and binding
// schema for validation.
type envDef struct {
	params map[string]bool // known parameter names
	// binds maps required role names; when openBinds is true any role
	// name is accepted (waveform) but at least one must be given.
	binds     []string
	openBinds bool
}

var envLibrary = map[string]envDef{
	"arrestor": {
		params: map[string]bool{
			"ticks_per_ms": true, "pulses_per_meter": true,
			"max_brake_force_n": true, "valve_tau_s": true,
			"drag_ns_per_m": true, "stop_velocity_ms": true,
			"num_brakes": true,
		},
		binds: []string{"command", "pacnt", "tic1", "tcnt", "adc"},
	},
	"ramp": {
		params: map[string]bool{"mass_div": true, "now_div": true, "mask": true},
		binds:  []string{"command"},
	},
	"waveform": {
		params:    map[string]bool{"seed": true, "mask": true},
		openBinds: true,
	},
}

// validateEnv checks an environment spec against the schema; declared
// (when non-empty) is the signals section for dangling-bind checks.
func validateEnv(e EnvSpec, declared map[string]int) error {
	def, ok := envLibrary[e.Kind]
	if !ok {
		kinds := make([]string, 0, len(envLibrary))
		for k := range envLibrary {
			kinds = append(kinds, k)
		}
		sort.Strings(kinds)
		return invalidf("synth: unknown environment kind %q (want one of %v)", e.Kind, kinds)
	}
	for k := range e.Params {
		if !def.params[k] {
			return invalidf("synth: environment %q: unknown param %q", e.Kind, k)
		}
	}
	for _, role := range def.binds {
		if e.Bind[role] == "" {
			return invalidf("synth: environment %q: missing binding for role %q", e.Kind, role)
		}
	}
	if !def.openBinds {
		for role := range e.Bind {
			known := false
			for _, r := range def.binds {
				if r == role {
					known = true
				}
			}
			if !known {
				return invalidf("synth: environment %q: unknown binding role %q", e.Kind, role)
			}
		}
	} else if len(e.Bind) == 0 {
		return invalidf("synth: environment %q: needs at least one bound signal", e.Kind)
	}
	if len(declared) > 0 {
		for role, name := range e.Bind {
			if _, ok := declared[name]; !ok {
				return invalidf("synth: environment binding %q → %q is a dangling wire: not in the signals section", role, name)
			}
		}
	}
	return nil
}

// buildEnv instantiates the environment for one test case. sig
// resolves a bound signal name to its bus handle.
func buildEnv(e EnvSpec, tc physics.TestCase, sig func(string) *sim.Signal) (*envRuntime, error) {
	p := blockParams{}
	for k, v := range e.Params {
		p[k] = v
	}
	switch e.Kind {
	case "arrestor":
		return buildArrestorEnv(p, e.Bind, tc, sig)
	case "ramp":
		base := uint16(int64(tc.MassKg/float64(p.num("mass_div", 10)))+int64(tc.VelocityMS)) & p.u16("mask", 0x3FFF)
		nowDiv := p.i64("now_div", 16)
		mask := p.u16("mask", 0x3FFF)
		cmd := sig(e.Bind["command"])
		return &envRuntime{
			pre: func(now sim.Millis) {
				cmd.Write((base + uint16(int64(now)/nowDiv)) & mask)
			},
		}, nil
	case "waveform":
		return buildWaveformEnv(p, e.Bind, tc, sig)
	}
	return nil, invalidf("synth: unknown environment kind %q", e.Kind)
}

// arrestorEnv replicates internal/arrestor's glue layer bit for bit:
// it advances the physics world one millisecond per tick, refreshes
// the timer/pulse/ADC registers and applies the command signal to the
// valve.
type arrestorEnv struct {
	world *physics.World

	command, pacnt, tic1, tcnt, adc *sim.Signal

	ticksPerMs uint16
	tcntVal    uint16
	pacntVal   uint16
}

func buildArrestorEnv(p blockParams, bind map[string]string, tc physics.TestCase, sig func(string) *sim.Signal) (*envRuntime, error) {
	cfg := physics.DefaultConfig()
	if v, ok := p["pulses_per_meter"]; ok {
		cfg.PulsesPerMeter, _ = toNumber(v)
	}
	if v, ok := p["max_brake_force_n"]; ok {
		cfg.MaxBrakeForceN, _ = toNumber(v)
	}
	if v, ok := p["valve_tau_s"]; ok {
		cfg.ValveTauS, _ = toNumber(v)
	}
	if v, ok := p["drag_ns_per_m"]; ok {
		cfg.DragNsPerM, _ = toNumber(v)
	}
	if v, ok := p["stop_velocity_ms"]; ok {
		cfg.StopVelocityMS, _ = toNumber(v)
	}
	if _, ok := p["num_brakes"]; ok {
		cfg.NumBrakes = int(p.i64("num_brakes", 0))
	}
	world, err := physics.NewWorld(cfg, tc)
	if err != nil {
		return nil, fmt.Errorf("synth: building physics world: %w", err)
	}
	env := &arrestorEnv{
		world:      world,
		command:    sig(bind["command"]),
		pacnt:      sig(bind["pacnt"]),
		tic1:       sig(bind["tic1"]),
		tcnt:       sig(bind["tcnt"]),
		adc:        sig(bind["adc"]),
		ticksPerMs: p.u16("ticks_per_ms", 250),
	}
	return &envRuntime{pre: env.preTick, stateful: []model.Stateful{world, env}}, nil
}

// preTick mirrors arrestor.glue.preTick exactly.
func (g *arrestorEnv) preTick(now sim.Millis) {
	// Valve command: the command register as written by the actuator
	// module on its last invocation.
	g.world.SetCommand(float64(g.command.Read()) / 65535)

	pulses := g.world.Step(0.001)

	// Free-running 16-bit timer counter: wraps naturally.
	g.tcntVal += g.ticksPerMs
	g.tcnt.Write(g.tcntVal)

	// Pulse accumulator and input capture: on pulses, bump the
	// accumulator and latch the capture register to "now".
	if pulses > 0 {
		g.pacntVal += uint16(pulses)
		g.pacnt.Write(g.pacntVal)
		g.tic1.Write(g.tcntVal)
	}

	// A/D conversion of applied pressure: 8-bit result left-justified
	// in the 16-bit register.
	sample := uint16(g.world.PressureFrac()*255 + 0.5)
	if sample > 255 {
		sample = 255
	}
	g.adc.Write(sample << 8)
}

type arrestorEnvState struct {
	TcntVal  uint16
	PacntVal uint16
}

func (g *arrestorEnv) State() any { return g.state() }

func (g *arrestorEnv) Equal(state any) bool { return model.EqualAs(g.state(), state) }

func (g *arrestorEnv) state() arrestorEnvState {
	return arrestorEnvState{TcntVal: g.tcntVal, PacntVal: g.pacntVal}
}

func (g *arrestorEnv) Restore(state any) error {
	var s arrestorEnvState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	g.tcntVal, g.pacntVal = s.TcntVal, s.PacntVal
	return nil
}

// waveformEnv drives each bound signal with a seeded pseudo-random
// waveform. The generator state is hidden state (checkpointable), the
// seed folds in the workload point so distinct cases produce distinct
// golden traces, and the default mask keeps values below bit 15 so
// hazard blocks stay dormant in golden runs.
type waveformEnv struct {
	sigs  []*sim.Signal
	mask  uint16
	state uint64
}

func buildWaveformEnv(p blockParams, bind map[string]string, tc physics.TestCase, sig func(string) *sim.Signal) (*envRuntime, error) {
	roles := make([]string, 0, len(bind))
	for r := range bind {
		roles = append(roles, r)
	}
	sort.Strings(roles) // deterministic drive order
	env := &waveformEnv{mask: p.u16("mask", 0x7FFF)}
	for _, r := range roles {
		env.sigs = append(env.sigs, sig(bind[r]))
	}
	seed := uint64(p.i64("seed", 1))
	seed ^= math.Float64bits(tc.MassKg) * 0x9E3779B97F4A7C15
	seed ^= math.Float64bits(tc.VelocityMS) << 17
	if seed == 0 {
		seed = 0x9E3779B9
	}
	env.state = seed
	return &envRuntime{pre: env.preTick, stateful: []model.Stateful{env}}, nil
}

func (w *waveformEnv) preTick(now sim.Millis) {
	for _, s := range w.sigs {
		w.state = w.state*6364136223846793005 + 1442695040888963407
		s.Write(uint16(w.state>>48) & w.mask)
	}
}

type waveformEnvState struct{ State uint64 }

func (w *waveformEnv) State() any { return waveformEnvState{State: w.state} }
func (w *waveformEnv) Equal(state any) bool {
	return model.EqualAs(waveformEnvState{State: w.state}, state)
}
func (w *waveformEnv) Restore(state any) error {
	var s waveformEnvState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	w.state = s.State
	return nil
}
