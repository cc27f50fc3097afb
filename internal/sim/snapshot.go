package sim

import "fmt"

// Snapshot is a capture of one simulation instance's dynamic state at
// a tick boundary: the kernel's simulated time and step-budget
// accounting, every bus signal value, and the opaque hidden state of
// the instance's stateful components (modules, hardware glue, the
// physical world). A snapshot taken from one instance can be restored
// into any identically constructed instance, fresh or run before,
// which then continues bit-identically to the original — the
// primitive behind the campaign engine's checkpoint fast-forward.
//
// The wall-clock budget deadline is deliberately NOT part of a
// snapshot: wall time is non-deterministic by nature, and Kernel.Run
// re-arms the deadline from Budget.Wall on every call, so a restored
// run gets a full fresh wall allowance while the deterministic step
// accounting (Used) continues exactly where the captured run left
// off.
type Snapshot struct {
	// Now is the simulated time at capture; the next executed tick is
	// tick Now.
	Now Millis
	// Used is the step-budget accounting at capture (Kernel.BudgetUsed).
	// Restoring it keeps hang classification bit-identical: a
	// fast-forwarded run exhausts its budget at exactly the same tick a
	// full replay would.
	Used int64
	// Signals holds every bus signal value in registration order.
	Signals []uint16
	// Hidden holds the opaque states of the instance's stateful
	// components in registration order (see model.Stateful); the
	// instance that captures a snapshot defines the order.
	Hidden []any
}

// Snapshotter captures and restores the sim-layer state of one
// instance: kernel time, step accounting, the (signal-derived) slot
// state and every bus signal value. Hidden module state is layered on
// top by the instance (the Snapshot.Hidden field); the Snapshotter
// itself is complete for targets whose tasks keep no state outside
// the bus.
type Snapshotter struct {
	kernel *Kernel
	bus    *Bus
}

// NewSnapshotter binds a snapshotter to one instance's kernel and bus.
func NewSnapshotter(k *Kernel, b *Bus) *Snapshotter {
	return &Snapshotter{kernel: k, bus: b}
}

// Capture records the sim-layer state. It must be called at a tick
// boundary (between Run calls), never from inside a hook or task.
func (s *Snapshotter) Capture() *Snapshot {
	snap := &Snapshot{
		Now:     s.kernel.now,
		Used:    s.kernel.used,
		Signals: make([]uint16, len(s.bus.values)),
	}
	s.bus.gather(snap.Signals)
	return snap
}

// Restore overwrites the sim-layer state from a snapshot captured on
// an identically constructed instance, and re-attaches every
// scheduled task's read hook (see Reader), so the instance continues
// exactly as a fresh one restored from snap would, whatever ran on it
// before. The kernel's exhausted flag is cleared and its wall deadline
// left to the next Run call; the armed Budget itself is not touched,
// so arm it (SetBudget) before restoring.
func (s *Snapshotter) Restore(snap *Snapshot) error {
	if len(snap.Signals) != len(s.bus.values) {
		return fmt.Errorf("sim: snapshot covers %d signals, bus has %d — not the same topology",
			len(snap.Signals), len(s.bus.values))
	}
	s.kernel.now = snap.Now
	s.kernel.used = snap.Used
	s.kernel.exhausted = false
	s.bus.scatter(snap.Signals)
	s.kernel.reattachReaders()
	return nil
}

// Matches reports whether the live sim-layer state equals snap's —
// the simulated time and every bus signal — without capturing it.
// The step accounting is not compared.
func (s *Snapshotter) Matches(snap *Snapshot) bool {
	return s.kernel.now == snap.Now && s.bus.MatchesSnapshot(snap)
}
