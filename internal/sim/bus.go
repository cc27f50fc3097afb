// Package sim provides the discrete-time execution substrate used to
// run the target software on a desktop, as the paper's experimental
// setup does (Section 7.3): real software running in simulated time,
// in a simulated environment, on simulated hardware. It contains a
// signal bus holding 16-bit signal values (the paper's input signals
// are all 16 bits wide) in one contiguous row, so a whole tick's state
// is recorded or compared as one slice; simulated hardware registers
// expressed as bus signals; and a slot-based non-preemptive kernel
// with a background task, mirroring the target system's scheduler.
package sim

import (
	"fmt"
	"slices"
)

// Millis is a simulated time instant or duration in milliseconds.
// The kernel advances in 1-ms ticks; traces have millisecond
// resolution, like PROPANE's.
type Millis int64

// Signal is one named 16-bit signal variable. Software modules hold
// *Signal handles and read/write values through them. A handle is a
// thin pointer to its cell in the bus's value row (see Bus.Values);
// the fault-injection traps flip bits in the same storage, so an
// injected error is visible to whoever reads the signal next and
// persists until the producer overwrites it — the SWIFI
// memory-corruption semantics.
type Signal struct {
	v     *uint16 // this signal's cell in its bus's value row
	name  string
	index int
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Index returns the signal's registration position on its bus: read
// hooks keep per-signal state in a slice indexed by it.
func (s *Signal) Index() int { return s.index }

// Read returns the current value.
func (s *Signal) Read() uint16 { return *s.v }

// Write stores a new value.
func (s *Signal) Write(v uint16) { *s.v = v }

// ReadBool interprets the signal as a boolean flag: any non-zero value
// is true (the common C idiom the target software uses).
func (s *Signal) ReadBool() bool { return *s.v != 0 }

// WriteBool stores 1 for true and 0 for false.
func (s *Signal) WriteBool(b bool) {
	if b {
		*s.v = 1
	} else {
		*s.v = 0
	}
}

// FlipBit inverts bit (0..15) of the current value — the paper's
// bit-flip error model.
func (s *Signal) FlipBit(bit uint) error {
	if bit > 15 {
		return fmt.Errorf("sim: bit %d out of range for 16-bit signal %s", bit, s.name)
	}
	*s.v ^= 1 << bit
	return nil
}

// slabSize is how many signal handles one slab holds, and the
// capacity of a bus's inline row; the built-in targets register 6–20
// signals.
const slabSize = 16

// Bus is a registry of named signals. One Bus underlies one simulation
// run; golden runs and injection runs each get a fresh Bus so runs are
// fully independent.
//
// The bus keeps every value in one contiguous row, one column per
// signal in sorted name order — the column order of a trace.Trace, so
// a recorded or compared tick is one slice copy or compare. Handles
// are carved from slabs of slabSize, the first one held inline: a bus
// of up to slabSize signals is a single allocation, and a larger one
// allocates once per slabSize signals, not once per signal.
type Bus struct {
	columns []string  // sorted signal names: the column order of values
	values  []uint16  // the live row
	byCol   []*Signal // handles in column order
	slab    []Signal  // unused handle storage

	// Inline backing storage for the first slabSize signals, so a
	// target's bus is one allocation.
	columnBuf [slabSize]string
	valueBuf  [slabSize]uint16
	byColBuf  [slabSize]*Signal
	slabBuf   [slabSize]Signal
}

// NewBus returns an empty signal bus.
func NewBus() *Bus {
	return &Bus{}
}

// Register creates a signal with initial value zero and returns its
// handle. Registering a name twice returns the existing handle, so
// producer and consumer modules can both "declare" the signal.
// Registration inserts a column, so a row returned by Values before
// it is stale after it; targets register every signal while they are
// constructed.
func (b *Bus) Register(name string) *Signal {
	col, ok := slices.BinarySearch(b.columns, name)
	if ok {
		return b.byCol[col]
	}
	switch {
	case b.columns == nil:
		b.columns, b.values, b.byCol = b.columnBuf[:0], b.valueBuf[:0], b.byColBuf[:0]
		b.slab = b.slabBuf[:]
	case len(b.slab) == 0:
		b.slab = make([]Signal, slabSize)
	}
	s := &b.slab[0]
	b.slab = b.slab[1:]
	s.name, s.index = name, len(b.byCol)
	b.columns = slices.Insert(b.columns, col, name)
	b.values = slices.Insert(b.values, col, 0)
	b.byCol = slices.Insert(b.byCol, col, s)
	for i, h := range b.byCol {
		h.v = &b.values[i]
	}
	return s
}

// Lookup returns the handle of an already-registered signal.
func (b *Bus) Lookup(name string) (*Signal, error) {
	col, ok := slices.BinarySearch(b.columns, name)
	if !ok {
		return nil, fmt.Errorf("sim: bus has no signal %q", name)
	}
	return b.byCol[col], nil
}

// Columns returns all registered signal names, sorted: the column
// order of Values. The slice is the bus's own; do not modify it.
func (b *Bus) Columns() []string { return b.columns }

// Values returns the live value row, one value per signal in Columns
// order. The slice is the bus's own storage: writes through signal
// handles show in it, and it must be treated as read-only.
func (b *Bus) Values() []uint16 { return b.values }

// gather copies the live values into dst in registration order, the
// order of Snapshot.Signals.
func (b *Bus) gather(dst []uint16) {
	for c, s := range b.byCol {
		dst[s.index] = b.values[c]
	}
}

// scatter overwrites the live values from src in registration order.
func (b *Bus) scatter(src []uint16) {
	for c, s := range b.byCol {
		b.values[c] = src[s.index]
	}
}

// MatchesSnapshot reports whether every live signal value equals the
// one the snapshot recorded — the cheap necessary condition for two
// instances' states to be equal.
func (b *Bus) MatchesSnapshot(snap *Snapshot) bool {
	if len(snap.Signals) != len(b.values) {
		return false
	}
	for c, s := range b.byCol {
		if b.values[c] != snap.Signals[s.index] {
			return false
		}
	}
	return true
}

// Snapshot returns the current value of every signal, keyed by name.
func (b *Bus) Snapshot() map[string]uint16 {
	out := make(map[string]uint16, len(b.columns))
	for i, n := range b.columns {
		out[n] = b.values[i]
	}
	return out
}

// FlipBit flips one bit of the named signal — the injection entry
// point used by the campaign driver.
func (b *Bus) FlipBit(name string, bit uint) error {
	s, err := b.Lookup(name)
	if err != nil {
		return err
	}
	return s.FlipBit(bit)
}
