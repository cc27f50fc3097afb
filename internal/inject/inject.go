// Package inject implements SWIFI (SoftWare Implemented Fault
// Injection) in the style of the paper's PROPANE tool (Section 6):
// errors are introduced into the input signals of software modules via
// high-level software traps that fire when the instrumented input read
// is reached during execution. One error is injected into one input
// signal per injection run.
package inject

import (
	"fmt"

	"propane/internal/model"
	"propane/internal/sim"
)

// ErrorModel transforms a correct signal value into a corrupted one.
// The paper's campaign uses single bit-flips; further models are
// provided for the error-model ablation (the paper's Section 6 notes
// that the measures are mainly used relatively, so the realism of the
// error model matters less as long as orderings are maintained —
// which the ablation checks).
type ErrorModel interface {
	// Mutate returns the corrupted value for a correct value.
	Mutate(v uint16) uint16
	// String describes the model, e.g. "bitflip(3)".
	String() string
}

// BitFlip inverts a single bit (the paper's error model).
type BitFlip struct {
	// Bit is the bit position to flip, 0..15.
	Bit uint
}

// Mutate implements ErrorModel.
func (b BitFlip) Mutate(v uint16) uint16 { return v ^ (1 << (b.Bit & 15)) }

// String implements ErrorModel.
func (b BitFlip) String() string { return fmt.Sprintf("bitflip(%d)", b.Bit) }

// StuckAt forces a single bit to a fixed level at the moment of
// injection.
type StuckAt struct {
	// Bit is the bit position, 0..15.
	Bit uint
	// One selects stuck-at-1; false is stuck-at-0.
	One bool
}

// Mutate implements ErrorModel.
func (s StuckAt) Mutate(v uint16) uint16 {
	mask := uint16(1) << (s.Bit & 15)
	if s.One {
		return v | mask
	}
	return v &^ mask
}

// String implements ErrorModel.
func (s StuckAt) String() string {
	level := 0
	if s.One {
		level = 1
	}
	return fmt.Sprintf("stuckat(%d=%d)", s.Bit, level)
}

// Replace substitutes the whole value (a gross data error, e.g. a
// wild pointer write).
type Replace struct {
	// Value is the corrupted value to substitute.
	Value uint16
}

// Mutate implements ErrorModel.
func (r Replace) Mutate(uint16) uint16 { return r.Value }

// String implements ErrorModel.
func (r Replace) String() string { return fmt.Sprintf("replace(%d)", r.Value) }

// Offset adds a signed delta with 16-bit wrap-around (an arithmetic
// error).
type Offset struct {
	// Delta is added to the value modulo 2^16.
	Delta int32
}

// Mutate implements ErrorModel.
func (o Offset) Mutate(v uint16) uint16 { return uint16(int32(v) + o.Delta) }

// String implements ErrorModel.
func (o Offset) String() string { return fmt.Sprintf("offset(%+d)", o.Delta) }

// Injection describes one experiment: corrupt the named input signal
// of the named module with the given error model, at the first
// instrumented read at or after time At.
type Injection struct {
	Module string
	Signal string
	At     sim.Millis
	Model  ErrorModel
}

// String renders the injection compactly.
func (inj Injection) String() string {
	return fmt.Sprintf("%s@%s t=%dms %s", inj.Signal, inj.Module, inj.At, inj.Model)
}

// Trap is a one-shot armed trap implementing the injection. Wire its
// Read method into the target's instrumented reads as their ReadHook;
// the trap fires at the first matching read at or after the injection
// time, corrupting the signal variable in place so the module sees the
// corrupted value on this very read (and other consumers see it until
// the producer overwrites it — SWIFI memory-corruption semantics).
type Trap struct {
	inj     Injection
	fired   bool
	firedAt sim.Millis
}

// NewTrap arms a trap for the injection.
func NewTrap(inj Injection) *Trap {
	return &Trap{inj: inj}
}

// Arm re-arms the trap for another injection, as NewTrap builds it,
// so one trap can serve run after run.
func (t *Trap) Arm(inj Injection) { *t = Trap{inj: inj} }

// Read is the trap's sim.ReadHook. It detaches from a reader once the
// trap has fired, and at once from a module other than the target:
// neither can ever be corrupted by it.
func (t *Trap) Read(module, signal string, sig *sim.Signal, now sim.Millis) (detach bool) {
	if t.fired || module != t.inj.Module {
		return true
	}
	if now < t.inj.At || signal != t.inj.Signal {
		return false
	}
	sig.Write(t.inj.Model.Mutate(sig.Read()))
	t.fired = true
	t.firedAt = now
	return true
}

// Fired reports whether the trap has fired and at what simulated time.
func (t *Trap) Fired() (sim.Millis, bool) {
	return t.firedAt, t.fired
}

// Injection returns the experiment description the trap was armed
// with.
func (t *Trap) Injection() Injection { return t.inj }

// PersistentTrap corrupts the signal on *every* matching read from the
// injection time until At+Duration (inclusive) — an intermittent or,
// with a duration covering the rest of the run, permanent fault at the
// module boundary. The paper injects transients only; the fault-
// duration ablation uses this trap to probe how estimates shift when
// errors persist (e.g. a stuck sensor register), which defeats
// transient-oriented defences such as median filtering.
type PersistentTrap struct {
	inj      Injection
	duration sim.Millis
	fired    bool
	firedAt  sim.Millis
}

// NewPersistentTrap arms a persistent trap active for duration
// milliseconds from the injection time.
func NewPersistentTrap(inj Injection, duration sim.Millis) *PersistentTrap {
	return &PersistentTrap{inj: inj, duration: duration}
}

// Arm re-arms the trap for another injection and duration, as
// NewPersistentTrap builds it.
func (t *PersistentTrap) Arm(inj Injection, duration sim.Millis) {
	*t = PersistentTrap{inj: inj, duration: duration}
}

// Read is the trap's sim.ReadHook. It detaches from a reader once the
// window has closed, and at once from a module other than the target.
func (t *PersistentTrap) Read(module, signal string, sig *sim.Signal, now sim.Millis) (detach bool) {
	if module != t.inj.Module || now > t.inj.At+t.duration {
		return true
	}
	if now < t.inj.At || signal != t.inj.Signal {
		return false
	}
	sig.Write(t.inj.Model.Mutate(sig.Read()))
	if !t.fired {
		t.fired = true
		t.firedAt = now
	}
	return false
}

// Fired reports whether the trap has fired at least once and when it
// first did.
func (t *PersistentTrap) Fired() (sim.Millis, bool) {
	return t.firedAt, t.fired
}

// Injection returns the experiment description the trap was armed
// with.
func (t *PersistentTrap) Injection() Injection { return t.inj }

// BitFlipPlan expands the paper's campaign for one system topology:
// for every module, every input signal, every injection time and
// every bit position, one Injection. With the paper's parameters (16
// bits, 10 times, and 25 test cases handled by the caller) this yields
// 16·10 = 160 injections per input signal per test case.
func BitFlipPlan(sys *model.System, times []sim.Millis, bits []uint) []Injection {
	var plan []Injection
	for _, mod := range sys.Modules() {
		for _, in := range mod.Inputs {
			for _, at := range times {
				for _, bit := range bits {
					plan = append(plan, Injection{
						Module: mod.Name,
						Signal: in.Signal,
						At:     at,
						Model:  BitFlip{Bit: bit},
					})
				}
			}
		}
	}
	return plan
}

// ModelPlan expands a campaign like BitFlipPlan but with an arbitrary
// list of error models applied at each (module, input, time) point.
func ModelPlan(sys *model.System, times []sim.Millis, models []ErrorModel) []Injection {
	var plan []Injection
	for _, mod := range sys.Modules() {
		for _, in := range mod.Inputs {
			for _, at := range times {
				for _, m := range models {
					plan = append(plan, Injection{
						Module: mod.Name,
						Signal: in.Signal,
						At:     at,
						Model:  m,
					})
				}
			}
		}
	}
	return plan
}

// PaperTimes returns the paper's ten injection instants: half-second
// intervals from 0.5 s to 5.0 s after the start of the arrestment.
func PaperTimes() []sim.Millis {
	times := make([]sim.Millis, 10)
	for i := range times {
		times[i] = sim.Millis(500 * (i + 1))
	}
	return times
}

// AllBits returns bit positions 0..15 (the paper flips each bit of the
// 16-bit input signals).
func AllBits() []uint {
	bits := make([]uint, 16)
	for i := range bits {
		bits[i] = uint(i)
	}
	return bits
}
