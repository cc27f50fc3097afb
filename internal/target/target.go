// Package target defines the abstraction between the campaign engine
// and the simulated systems it injects faults into. A target packages
// a static module/signal topology (the paper's software decomposition,
// Section 3) together with a constructor for fresh, fully wired
// simulation instances. The campaign engine builds one instance per
// golden run; a fast-forwarded injection run restores a checkpoint
// into an instance its worker keeps per test case (see
// Checkpointable), any other run builds its own, so runs stay
// independent and deterministic. internal/arrestor (the paper's aircraft-arrestment
// system) and internal/autobrake (the wheel-slip controller) both
// provide targets.
package target

import (
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
)

// Instance is the wired-up view of one target simulation that
// instrumentation attaches to: trace recorders and comparators read
// the bus, monitors and recovery hooks register with the kernel.
type Instance interface {
	// Bus returns the signal bus carrying every topology signal.
	Bus() *sim.Bus
	// Kernel returns the scheduling kernel driving the modules.
	Kernel() *sim.Kernel
}

// RunnableInstance is an Instance that can be driven to a horizon.
type RunnableInstance interface {
	Instance
	// Run advances the simulation to the horizon in milliseconds.
	Run(horizon sim.Millis)
}

// Checkpointable is a RunnableInstance whose complete dynamic state —
// kernel time, step-budget accounting, bus signals, and all hidden
// module/glue/plant state — can be captured at a tick boundary,
// compared in place and restored into an identically constructed
// instance. The campaign engine uses it to fast-forward injection
// runs: restore a snapshot taken just before the injection instant
// and simulate only the suffix. Targets that cannot guarantee a
// complete capture simply do not implement the interface and the
// engine falls back to full replay from t=0.
type Checkpointable interface {
	RunnableInstance
	// Checkpoint captures the full dynamic state. Call it only at a
	// tick boundary (between Run calls).
	Checkpoint() (*sim.Snapshot, error)
	// CheckpointOver is Checkpoint, except that a hidden state equal
	// to base's (a snapshot of an identically constructed instance)
	// shares base's value instead of being copied.
	CheckpointOver(base *sim.Snapshot) (*sim.Snapshot, error)
	// Matches reports whether the live state equals snap's — the
	// simulated time, every bus signal and every hidden state — without
	// capturing anything. The step accounting is not compared; a
	// caller that needs it compares Kernel().BudgetUsed() with
	// snap.Used. Call it only at a tick boundary.
	Matches(snap *sim.Snapshot) bool
	// Restore overwrites the full dynamic state from a snapshot
	// captured on an identically constructed instance, and re-attaches
	// every read hook (sim.Snapshotter.Restore): a restored instance
	// continues exactly as a freshly built one restored from the same
	// snapshot, whatever ran on it before. The engine restores one
	// instance per worker and test case for run after run.
	Restore(snap *sim.Snapshot) error
}

// Checkpointer implements Checkpointable's state methods for an
// instance whose dynamic state is its kernel's, its bus's and that of
// its hidden-state components. Target instances embed one.
type Checkpointer struct {
	snap *sim.Snapshotter
	// Stateful lists the components carrying hidden state, in the
	// fixed order snapshots record them in; an instance appends to it
	// while it is built.
	Stateful []model.Stateful
}

// NewCheckpointer binds a Checkpointer to an instance's kernel, bus and
// hidden-state components.
func NewCheckpointer(k *sim.Kernel, b *sim.Bus, stateful ...model.Stateful) Checkpointer {
	return Checkpointer{snap: sim.NewSnapshotter(k, b), Stateful: stateful}
}

// Checkpoint implements Checkpointable.
func (c *Checkpointer) Checkpoint() (*sim.Snapshot, error) {
	snap := c.snap.Capture()
	snap.Hidden = model.CaptureStates(c.Stateful)
	return snap, nil
}

// CheckpointOver implements Checkpointable.
func (c *Checkpointer) CheckpointOver(base *sim.Snapshot) (*sim.Snapshot, error) {
	snap := c.snap.Capture()
	snap.Hidden = model.CaptureStatesOver(c.Stateful, base.Hidden)
	return snap, nil
}

// Matches implements Checkpointable.
func (c *Checkpointer) Matches(snap *sim.Snapshot) bool {
	return c.snap.Matches(snap) && model.StatesEqual(c.Stateful, snap.Hidden)
}

// Restore implements Checkpointable.
func (c *Checkpointer) Restore(snap *sim.Snapshot) error {
	if err := c.snap.Restore(snap); err != nil {
		return err
	}
	return model.RestoreStates(c.Stateful, snap.Hidden)
}

// Target is a named target system: its topology and an instance
// constructor. Both fields must be non-nil.
type Target struct {
	// Name identifies the target (e.g. "autobrake").
	Name string
	// Topology returns the target's module/signal decomposition.
	Topology func() *model.System
	// New builds a fresh instance for one test case. hook, if
	// non-nil, is invoked on every instrumented module input read —
	// the injection/logging trap; pass nil for uninstrumented runs.
	New func(tc physics.TestCase, hook sim.ReadHook) (RunnableInstance, error)
}
