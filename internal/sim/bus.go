// Package sim provides the discrete-time execution substrate used to
// run the target software on a desktop, as the paper's experimental
// setup does (Section 7.3): real software running in simulated time,
// in a simulated environment, on simulated hardware. It contains a
// signal bus holding 16-bit signal values (the paper's input signals
// are all 16 bits wide), simulated hardware registers expressed as bus
// signals, and a slot-based non-preemptive kernel with a background
// task, mirroring the target system's scheduler.
package sim

import (
	"fmt"
	"sort"
)

// Millis is a simulated time instant or duration in milliseconds.
// The kernel advances in 1-ms ticks; traces have millisecond
// resolution, like PROPANE's.
type Millis int64

// Signal is one named 16-bit signal variable. Software modules hold
// *Signal handles and read/write values through them; the
// fault-injection traps flip bits in the same storage, so an injected
// error is visible to whoever reads the signal next and persists until
// the producer overwrites it — the SWIFI memory-corruption semantics.
type Signal struct {
	name  string
	value uint16
	index int
}

// Name returns the signal's name.
func (s *Signal) Name() string { return s.name }

// Index returns the signal's registration position on its bus: read
// hooks keep per-signal state in a slice indexed by it.
func (s *Signal) Index() int { return s.index }

// Read returns the current value.
func (s *Signal) Read() uint16 { return s.value }

// Write stores a new value.
func (s *Signal) Write(v uint16) { s.value = v }

// ReadBool interprets the signal as a boolean flag: any non-zero value
// is true (the common C idiom the target software uses).
func (s *Signal) ReadBool() bool { return s.value != 0 }

// WriteBool stores 1 for true and 0 for false.
func (s *Signal) WriteBool(b bool) {
	if b {
		s.value = 1
	} else {
		s.value = 0
	}
}

// FlipBit inverts bit (0..15) of the current value — the paper's
// bit-flip error model.
func (s *Signal) FlipBit(bit uint) error {
	if bit > 15 {
		return fmt.Errorf("sim: bit %d out of range for 16-bit signal %s", bit, s.name)
	}
	s.value ^= 1 << bit
	return nil
}

// Bus is a registry of named signals. One Bus underlies one simulation
// run; golden runs and injection runs each get a fresh Bus so runs are
// fully independent.
type Bus struct {
	signals map[string]*Signal
	order   []string
}

// NewBus returns an empty signal bus.
func NewBus() *Bus {
	return &Bus{signals: make(map[string]*Signal)}
}

// Register creates a signal with initial value zero and returns its
// handle. Registering a name twice returns the existing handle, so
// producer and consumer modules can both "declare" the signal.
func (b *Bus) Register(name string) *Signal {
	if s, ok := b.signals[name]; ok {
		return s
	}
	s := &Signal{name: name, index: len(b.order)}
	b.signals[name] = s
	b.order = append(b.order, name)
	return s
}

// Lookup returns the handle of an already-registered signal.
func (b *Bus) Lookup(name string) (*Signal, error) {
	s, ok := b.signals[name]
	if !ok {
		return nil, fmt.Errorf("sim: bus has no signal %q", name)
	}
	return s, nil
}

// Names returns all registered signal names, sorted.
func (b *Bus) Names() []string {
	out := make([]string, len(b.order))
	copy(out, b.order)
	sort.Strings(out)
	return out
}

// Snapshot returns the current value of every signal, keyed by name.
func (b *Bus) Snapshot() map[string]uint16 {
	out := make(map[string]uint16, len(b.signals))
	for n, s := range b.signals {
		out[n] = s.value
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
