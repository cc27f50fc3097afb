package model

import "fmt"

// Stateful is implemented by simulation components (modules, hardware
// glue, plant models) that carry hidden state outside the signal bus.
// It is the per-component half of the checkpoint fast-forward
// machinery: an instance collects its Stateful components in a fixed
// registration order, captures them alongside a sim.Snapshot, compares
// them in place against a capture, and restores them into an
// identically constructed instance.
type Stateful interface {
	// State returns an opaque value capturing all hidden state. The
	// value must be an independent copy: mutating the component after
	// State must not affect it (deep-copy any slices or maps).
	State() any
	// Restore overwrites the component's hidden state from a value
	// previously returned by State on an identically constructed
	// component. It returns an error if the value is not of the
	// expected type.
	Restore(state any) error
	// Equal reports whether the component's live hidden state equals
	// a value previously returned by State, without capturing it: the
	// campaign engine compares a running instance against recorded
	// states at every probe, and most probes find them unequal. A
	// value of another type is unequal.
	Equal(state any) bool
}

// CaptureStates captures every component's hidden state in order.
func CaptureStates(components []Stateful) []any {
	states := make([]any, len(components))
	for i, c := range components {
		states[i] = c.State()
	}
	return states
}

// CaptureStatesOver is CaptureStates, except that a component whose
// live state equals its entry in base (captured over the same
// component list) shares base's value instead of capturing a copy: a
// state recorded a few ticks after an injection mostly equals the
// golden state there, and sharing neither allocates nor retains a
// second copy.
func CaptureStatesOver(components []Stateful, base []any) []any {
	states := make([]any, len(components))
	for i, c := range components {
		if i < len(base) && c.Equal(base[i]) {
			states[i] = base[i]
		} else {
			states[i] = c.State()
		}
	}
	return states
}

// StatesEqual reports whether every component's live hidden state
// equals its entry in states (see Stateful.Equal).
func StatesEqual(components []Stateful, states []any) bool {
	if len(states) != len(components) {
		return false
	}
	for i, c := range components {
		if !c.Equal(states[i]) {
			return false
		}
	}
	return true
}

// EqualAs implements the common body of a Stateful.Equal method for
// a comparable state type: live is the value State would return now,
// and it equals state when state holds a T of the same value.
func EqualAs[T comparable](live T, state any) bool {
	s, ok := state.(T)
	return ok && s == live
}

// RestoreAs implements the common body of a Stateful.Restore method:
// it type-asserts state to T (the type the matching State method
// returned) and copies it over dst.
func RestoreAs[T any](dst *T, state any) error {
	s, ok := state.(T)
	if !ok {
		var want T
		return fmt.Errorf("model: state is %T, want %T", state, want)
	}
	*dst = s
	return nil
}

// RestoreStates restores every component's hidden state in order. The
// state slice must come from CaptureStates over an identically
// registered component list.
func RestoreStates(components []Stateful, states []any) error {
	if len(states) != len(components) {
		return fmt.Errorf("model: %d states for %d stateful components — not the same topology",
			len(states), len(components))
	}
	for i, c := range components {
		if err := c.Restore(states[i]); err != nil {
			return fmt.Errorf("model: restoring component %d: %w", i, err)
		}
	}
	return nil
}
