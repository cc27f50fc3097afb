package arrestor

import (
	"fmt"

	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
)

// Instance is one fully wired simulation of the target system: the
// signal bus, the slot-based kernel with all six modules scheduled,
// the hardware glue and the physical world. Each golden run and each
// injection run uses a fresh Instance, so runs are fully independent
// and deterministic.
type Instance struct {
	cfg    Config
	kernel *sim.Kernel
	bus    *sim.Bus
	world  *physics.World

	snap     *sim.Snapshotter
	stateful []model.Stateful
}

// NewInstance builds an instance for one test case. onRead, if
// non-nil, is invoked on every module input read (the injection/
// logging trap); pass nil for an uninstrumented run.
func NewInstance(cfg Config, tc physics.TestCase, onRead sim.ReadHook) (*Instance, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	world, err := physics.NewWorld(cfg.Physics, tc)
	if err != nil {
		return nil, err
	}
	kernel, err := sim.NewKernel(NumSlots)
	if err != nil {
		return nil, err
	}
	bus := sim.NewBus()

	// Register every signal of the topology, in the order snapshots
	// record them. Registering a name again returns its handle, so the
	// wiring below looks handles up through the bus without a map.
	for _, name := range []string{
		SigMscnt, SigMsSlotNbr, SigPACNT, SigTIC1, SigTCNT,
		SigPulscnt, SigSlowSpeed, SigStopped, SigI, SigSetValue,
		SigADC, SigInValue, SigOutValue, SigTOC2,
	} {
		bus.Register(name)
	}
	sigs := bus.Register

	// Hardware glue: refreshes input registers before the software.
	g := &glue{
		world:      world,
		pacnt:      sigs(SigPACNT),
		tic1:       sigs(SigTIC1),
		tcnt:       sigs(SigTCNT),
		adc:        sigs(SigADC),
		toc2:       sigs(SigTOC2),
		ticksPerMs: cfg.TCNTTicksPerMs,
	}
	kernel.AddPreHook(g.preTick)

	// The scheduler reads the current slot from ms_slot_nbr, as the
	// paper states, so clock errors genuinely disturb the schedule.
	kernel.UseSlotSignal(sigs(SigMsSlotNbr))

	ck := &clock{
		Reader:     sim.NewReader(ModClock, onRead),
		slotIn:     sigs(SigMsSlotNbr),
		mscntOut:   sigs(SigMscnt),
		slotOut:    sigs(SigMsSlotNbr),
		slotPeriod: NumSlots,
	}
	ds := &distS{
		Reader:        sim.NewReader(ModDistS, onRead),
		pacntIn:       sigs(SigPACNT),
		tic1In:        sigs(SigTIC1),
		tcntIn:        sigs(SigTCNT),
		pulscntOut:    sigs(SigPulscnt),
		slowOut:       sigs(SigSlowSpeed),
		stoppedOut:    sigs(SigStopped),
		slowGapTicks:  cfg.SlowGapTicks,
		stopPersistMs: cfg.StopPersistMs,
	}
	ps := &presS{
		Reader:     sim.NewReader(ModPresS, onRead),
		adcIn:      sigs(SigADC),
		inValueOut: sigs(SigInValue),
	}
	cl := &calc{
		Reader:      sim.NewReader(ModCalc, onRead),
		pulscntIn:   sigs(SigPulscnt),
		mscntIn:     sigs(SigMscnt),
		slowIn:      sigs(SigSlowSpeed),
		stoppedIn:   sigs(SigStopped),
		iIn:         sigs(SigI),
		iOut:        sigs(SigI),
		setValueOut: sigs(SigSetValue),
		checkpoints: cfg.CheckpointPulses,
		profile:     cfg.Profile,
		windowMs:    cfg.WindowMs,
		vRefPulses:  cfg.VRefPulses,
		slowTarget:  cfg.SlowTarget,
	}
	vr := &vReg{
		Reader:      sim.NewReader(ModVReg, onRead),
		setValueIn:  sigs(SigSetValue),
		inValueIn:   sigs(SigInValue),
		outValueOut: sigs(SigOutValue),
	}
	pa := &presA{
		Reader:     sim.NewReader(ModPresA, onRead),
		outValueIn: sigs(SigOutValue),
		toc2Out:    sigs(SigTOC2),
		maxSlew:    cfg.MaxSlew,
	}

	// Schedule: CLOCK and DIST_S every millisecond; the sampling and
	// actuation modules in their 7-ms slots; CALC as background task.
	kernel.AddEveryTick(ck)
	kernel.AddEveryTick(ds)
	if err := kernel.AddSlotted(cfg.SlotPresS, ps); err != nil {
		return nil, fmt.Errorf("arrestor: scheduling PRES_S: %w", err)
	}
	if err := kernel.AddSlotted(cfg.SlotVReg, vr); err != nil {
		return nil, fmt.Errorf("arrestor: scheduling V_REG: %w", err)
	}
	if err := kernel.AddSlotted(cfg.SlotPresA, pa); err != nil {
		return nil, fmt.Errorf("arrestor: scheduling PRES_A: %w", err)
	}
	kernel.AddBackground(cl)

	in := &Instance{cfg: cfg, kernel: kernel, bus: bus, world: world}
	in.snap = sim.NewSnapshotter(kernel, bus)
	// Every component carrying hidden state, in a fixed order the
	// restore side relies on. NewDualInstance appends the slave's.
	in.stateful = []model.Stateful{world, g, ck, ds, ps, cl, vr, pa}
	return in, nil
}

// Kernel returns the instance's kernel (for adding trace hooks and
// running the simulation).
func (in *Instance) Kernel() *sim.Kernel { return in.kernel }

// Bus returns the instance's signal bus.
func (in *Instance) Bus() *sim.Bus { return in.bus }

// World returns the physical world.
func (in *Instance) World() *physics.World { return in.world }

// Run advances the simulation to the given horizon in milliseconds.
func (in *Instance) Run(horizon sim.Millis) {
	in.kernel.Run(horizon, nil)
}

// Checkpoint captures the instance's full dynamic state at a tick
// boundary (target.Checkpointable).
func (in *Instance) Checkpoint() (*sim.Snapshot, error) {
	snap := in.snap.Capture()
	snap.Hidden = model.CaptureStates(in.stateful)
	return snap, nil
}

// Restore overwrites the instance's full dynamic state from a
// snapshot captured on an identically constructed instance
// (target.Checkpointable).
func (in *Instance) Restore(snap *sim.Snapshot) error {
	if err := in.snap.Restore(snap); err != nil {
		return err
	}
	return model.RestoreStates(in.stateful, snap.Hidden)
}
