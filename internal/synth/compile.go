package synth

// The compilation pipeline: Spec → model.System (the static topology
// the permeability analysis runs over) + target.Target (the dynamic
// instance factory the campaign engine drives). A compiled instance
// is Checkpointable — kernel time, budget accounting, bus signals and
// every block's and the environment's hidden state are captured and
// restored — so checkpoint fast-forward and run-result memoization
// apply to DSL targets unchanged.

import (
	"fmt"
	"sort"

	"propane/internal/campaign"
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/synth/workload"
	"propane/internal/target"
)

// Compiled is the result of compiling a spec: the static topology and
// the runnable target.
type Compiled struct {
	Spec   *Spec
	System *model.System
	Target *target.Target
}

// Compile validates a spec and compiles it. The returned target's New
// constructor builds fresh, fully wired, Checkpointable instances.
func Compile(s *Spec) (*Compiled, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	sys, err := buildSystem(s)
	if err != nil {
		return nil, err
	}
	t := &target.Target{
		Name:     s.Name,
		Topology: func() *model.System { return sys },
		New: func(tc physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
			return newInstance(s, tc, hook)
		},
	}
	return &Compiled{Spec: s, System: sys, Target: t}, nil
}

// buildSystem lowers the spec's module list onto model.Builder, which
// enforces the topology-level invariants (single driver per signal,
// driven system outputs, non-empty boundary).
func buildSystem(s *Spec) (*model.System, error) {
	b := model.NewBuilder(s.Name)
	for _, m := range s.Modules {
		b.AddModule(m.Name, m.Inputs, m.Outputs)
	}
	for _, out := range s.SystemOutputs {
		b.DeclareSystemOutput(out)
	}
	sys, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("synth: compiling topology %q: %w", s.Name, err)
	}
	return sys, nil
}

// moduleTask adapts a block instance to the kernel's Task interface
// with instrumented input reads: every read of an input signal passes
// through the injection/logging hook before the value is latched, in
// port order — the same read discipline every hand-written module
// follows, so traps fire at identical points in the execution.
type moduleTask struct {
	sim.Reader

	in, out       []*sim.Signal
	inBuf, outBuf []uint16
	outMask       []uint16
	block         blockInstance
}

// Step implements sim.Task: latch all inputs (through the trap, in
// port order), run the transfer function, write all outputs (in port
// order, masked to each signal's declared width).
func (m *moduleTask) Step(now sim.Millis) {
	for i, s := range m.in {
		m.inBuf[i] = m.Read(s, now)
	}
	m.block.Step(now, m.inBuf, m.outBuf)
	for i, s := range m.out {
		s.Write(m.outBuf[i] & m.outMask[i])
	}
}

// instance is one wired simulation of a compiled topology.
type instance struct {
	kernel *sim.Kernel
	bus    *sim.Bus

	snap     *sim.Snapshotter
	stateful []model.Stateful
}

// Bus implements target.Instance.
func (in *instance) Bus() *sim.Bus { return in.bus }

// Kernel implements target.Instance.
func (in *instance) Kernel() *sim.Kernel { return in.kernel }

// Run implements target.RunnableInstance.
func (in *instance) Run(horizon sim.Millis) { in.kernel.Run(horizon, nil) }

// Checkpoint implements target.Checkpointable.
func (in *instance) Checkpoint() (*sim.Snapshot, error) {
	snap := in.snap.Capture()
	snap.Hidden = model.CaptureStates(in.stateful)
	return snap, nil
}

// Restore implements target.Checkpointable.
func (in *instance) Restore(snap *sim.Snapshot) error {
	if err := in.snap.Restore(snap); err != nil {
		return err
	}
	return model.RestoreStates(in.stateful, snap.Hidden)
}

// newInstance wires one fresh instance for a test case.
func newInstance(s *Spec, tc physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
	slots := s.Slots
	if slots == 0 {
		slots = 1
	}
	kernel, err := sim.NewKernel(slots)
	if err != nil {
		return nil, err
	}
	bus := sim.NewBus()

	// Register declared signals first, in declaration order, then any
	// referenced-but-undeclared signals as modules mention them
	// (Register deduplicates; registration order does not influence
	// traces, which sample in sorted-name order).
	widths := make(map[string]int)
	for _, sig := range s.Signals {
		bus.Register(sig.Name)
		widths[sig.Name] = sig.Width
	}
	sig := func(name string) *sim.Signal { return bus.Register(name) }

	env, err := buildEnv(s.Environment, tc, sig)
	if err != nil {
		return nil, err
	}
	kernel.AddPreHook(env.pre)

	if s.SlotSignal != "" {
		kernel.UseSlotSignal(sig(s.SlotSignal))
	}

	ctx := &buildCtx{kernel: kernel, slots: slots}
	in := &instance{kernel: kernel, bus: bus}
	in.stateful = append(in.stateful, env.stateful...)

	for _, m := range s.Modules {
		def, ok := lookupBlock(m.Fn)
		if !ok {
			return nil, invalidf("synth: module %q: unknown transfer function %q", m.Name, m.Fn)
		}
		block, err := def.build(blockParams(m.Params), ctx)
		if err != nil {
			return nil, fmt.Errorf("synth: building module %q: %w", m.Name, err)
		}
		task := &moduleTask{
			Reader:  sim.NewReader(m.Name, hook),
			inBuf:   make([]uint16, len(m.Inputs)),
			outBuf:  make([]uint16, len(m.Outputs)),
			outMask: make([]uint16, len(m.Outputs)),
			block:   block,
		}
		for _, name := range m.Inputs {
			task.in = append(task.in, sig(name))
		}
		for i, name := range m.Outputs {
			task.out = append(task.out, sig(name))
			w, ok := widths[name]
			if !ok || w >= MaxSignalWidth {
				task.outMask[i] = 0xFFFF
			} else {
				task.outMask[i] = uint16(1)<<w - 1
			}
		}
		switch m.Schedule {
		case "every-tick":
			kernel.AddEveryTick(task)
		case "background":
			kernel.AddBackground(task)
		default:
			slot, ok := parseSlot(m.Schedule)
			if !ok {
				return nil, invalidf("synth: module %q: unknown schedule %q", m.Name, m.Schedule)
			}
			if err := kernel.AddSlotted(slot, task); err != nil {
				return nil, fmt.Errorf("synth: scheduling module %q: %w", m.Name, err)
			}
		}
		in.stateful = append(in.stateful, block)
	}
	// Make sure every system output exists on the bus even if no
	// module mentions it (the builder already guarantees it is driven,
	// so this is belt and braces for direct instance users).
	for _, name := range s.SystemOutputs {
		sig(name)
	}

	in.snap = sim.NewSnapshotter(kernel, bus)
	return in, nil
}

// Tiers returns the spec's campaign tier names, sorted.
func (c *Compiled) Tiers() []string {
	tiers := make([]string, 0, len(c.Spec.Campaign))
	for t := range c.Spec.Campaign {
		tiers = append(tiers, t)
	}
	sort.Strings(tiers)
	return tiers
}

// Config materialises one campaign tier of the document into a
// runnable campaign configuration: workload generation expands the
// tier's workload spec into concrete test cases, and the compiled
// target plugs in as campaign.Config.Custom.
func (c *Compiled) Config(tier string) (campaign.Config, error) {
	ts, ok := c.Spec.Campaign[tier]
	if !ok {
		return campaign.Config{}, fmt.Errorf("synth: spec %q has no campaign tier %q (have %v)",
			c.Spec.Name, tier, c.Tiers())
	}
	cases, err := workload.Generate(ts.Workload)
	if err != nil {
		return campaign.Config{}, fmt.Errorf("synth: tier %q workload: %w", tier, err)
	}
	times := make([]sim.Millis, len(ts.TimesMs))
	for i, t := range ts.TimesMs {
		times[i] = sim.Millis(t)
	}
	// Validate already vetted the spelling; a failure here means the
	// spec bypassed Parse.
	mode, err := campaign.ParseAdaptiveMode(ts.Adaptive)
	if err != nil {
		return campaign.Config{}, fmt.Errorf("synth: tier %q: %w", tier, err)
	}
	return campaign.Config{
		Custom:         c.Target,
		TestCases:      cases,
		Times:          times,
		Bits:           append([]uint(nil), ts.Bits...),
		HorizonMs:      sim.Millis(ts.HorizonMs),
		DirectWindowMs: sim.Millis(ts.DirectWindowMs),
		Budget:         sim.Budget{Steps: ts.BudgetSteps},
		Adaptive:       mode,
		CIEpsilon:      ts.CIEpsilon,
	}, nil
}
