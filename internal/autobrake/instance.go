package autobrake

import (
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/target"
)

// Instance is one fully wired simulation of the brake controller.
type Instance struct {
	kernel  *sim.Kernel
	bus     *sim.Bus
	plant   *vehicle
	pwm     *sim.Signal
	tcntVal uint16
	wspVal  uint16
	vspVal  uint16

	// Checkpointer makes the instance target.Checkpointable.
	target.Checkpointer
}

// NewInstance builds an instance for one panic-stop scenario. onRead
// is the injection/logging trap (nil for uninstrumented runs).
func NewInstance(cfg Config, tc physics.TestCase, onRead sim.ReadHook) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	plant, err := newVehicle(cfg, tc)
	if err != nil {
		return nil, err
	}
	kernel, err := sim.NewKernel(NumSlots)
	if err != nil {
		return nil, err
	}
	bus := sim.NewBus()
	sigs := make(map[string]*sim.Signal)
	for _, name := range []string{
		SigWSP, SigVSP, SigTCNT2, SigWheelSpeed, SigVehSpeed,
		SigSlip, SigLocked, SigMode, SigBrakeCmd, SigPWM,
	} {
		sigs[name] = bus.Register(name)
	}

	inst := &Instance{kernel: kernel, bus: bus, plant: plant, pwm: sigs[SigPWM]}

	// Hardware glue: valve command from PWM, plant step, register
	// refresh.
	kernel.AddPreHook(func(sim.Millis) {
		plant.command = float64(inst.pwm.Read()) / 65535
		wp, vp := plant.step(0.001)
		inst.tcntVal += cfg.TCNTTicksPerMs
		sigs[SigTCNT2].Write(inst.tcntVal)
		if wp > 0 {
			inst.wspVal += uint16(wp)
			sigs[SigWSP].Write(inst.wspVal)
		}
		if vp > 0 {
			inst.vspVal += uint16(vp)
			sigs[SigVSP].Write(inst.vspVal)
		}
	})

	ws := &wspeed{
		Reader:         sim.NewReader(ModWSpeed, onRead),
		wspIn:          sigs[SigWSP],
		tcntIn:         sigs[SigTCNT2],
		speedOut:       sigs[SigWheelSpeed],
		ticksPerWindow: uint32(cfg.TCNTTicksPerMs) * speedWindowMs,
	}
	vs := &vspeed{
		Reader:   sim.NewReader(ModVSpeed, onRead),
		vspIn:    sigs[SigVSP],
		speedOut: sigs[SigVehSpeed],
		windowMs: speedWindowMs,
	}
	sc := &slipCalc{
		Reader:        sim.NewReader(ModSlip, onRead),
		wheelIn:       sigs[SigWheelSpeed],
		vehIn:         sigs[SigVehSpeed],
		slipOut:       sigs[SigSlip],
		lockOut:       sigs[SigLocked],
		lockPersistMs: cfg.LockPersistMs,
	}
	ct := &ctrl{
		Reader:      sim.NewReader(ModCtrl, onRead),
		slipIn:      sigs[SigSlip],
		lockIn:      sigs[SigLocked],
		modeIn:      sigs[SigMode],
		modeOut:     sigs[SigMode],
		cmdOut:      sigs[SigBrakeCmd],
		slipApply:   cfg.SlipApply,
		slipRelease: cfg.SlipRelease,
		applyStep:   cfg.ApplyStep,
		releaseStep: cfg.ReleaseStep,
	}
	pm := &pmod{
		Reader:  sim.NewReader(ModPMod, onRead),
		cmdIn:   sigs[SigBrakeCmd],
		pwmOut:  sigs[SigPWM],
		maxSlew: cfg.MaxSlew,
	}

	kernel.AddEveryTick(ws)
	kernel.AddEveryTick(vs)
	kernel.AddEveryTick(sc)
	kernel.AddBackground(ct)
	if err := kernel.AddSlotted(cfg.SlotPMod, pm); err != nil {
		return nil, err
	}
	// Every component carrying hidden state, in a fixed order the
	// restore side relies on.
	inst.Checkpointer = target.NewCheckpointer(kernel, bus, instanceCounters{inst}, plant, ws, vs, sc, ct, pm)
	return inst, nil
}

// Bus returns the signal bus.
func (in *Instance) Bus() *sim.Bus { return in.bus }

// Kernel returns the kernel.
func (in *Instance) Kernel() *sim.Kernel { return in.kernel }

// Run advances the simulation to the horizon.
func (in *Instance) Run(horizon sim.Millis) { in.kernel.Run(horizon, nil) }

// VehicleSpeedMS returns the plant's vehicle speed.
func (in *Instance) VehicleSpeedMS() float64 { return in.plant.speedMS }

// WheelSpeedMS returns the wheel's equivalent linear speed.
func (in *Instance) WheelSpeedMS() float64 {
	return in.plant.omega * in.plant.cfg.WheelRadiusM
}

// PressureFrac returns the brake pressure fraction.
func (in *Instance) PressureFrac() float64 { return in.plant.pressure }

// Target adapts the controller to the campaign engine.
func Target(cfg Config) *target.Target {
	return &target.Target{
		Name:     "autobrake",
		Topology: Topology,
		New: func(tc physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
			return NewInstance(cfg, tc, hook)
		},
	}
}
