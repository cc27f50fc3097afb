package physics

import (
	"fmt"
	"slices"
)

// worldState is the opaque checkpoint state of a World (see
// model.Stateful, which World satisfies structurally — this package
// stays free of simulation-framework imports).
type worldState struct {
	positionM     float64
	velocityMS    float64
	pressure      []float64
	command       []float64
	pulseResidual float64
	pulseCount    uint64
}

// State captures the world's dynamic state. The per-brake slices are
// deep-copied so later Steps cannot mutate the capture.
func (w *World) State() any {
	return worldState{
		positionM:     w.positionM,
		velocityMS:    w.velocityMS,
		pressure:      append([]float64(nil), w.pressure...),
		command:       append([]float64(nil), w.command...),
		pulseResidual: w.pulseResidual,
		pulseCount:    w.pulseCount,
	}
}

// Equal reports whether the world's live state equals a State
// capture, without capturing it.
func (w *World) Equal(state any) bool {
	s, ok := state.(worldState)
	return ok && s.positionM == w.positionM && s.velocityMS == w.velocityMS &&
		slices.Equal(s.pressure, w.pressure) && slices.Equal(s.command, w.command) &&
		s.pulseResidual == w.pulseResidual && s.pulseCount == w.pulseCount
}

// Restore overwrites the world's dynamic state from a State capture
// taken on a world with the same brake count.
func (w *World) Restore(state any) error {
	s, ok := state.(worldState)
	if !ok {
		return fmt.Errorf("physics: state is %T, want worldState", state)
	}
	if len(s.pressure) != len(w.pressure) || len(s.command) != len(w.command) {
		return fmt.Errorf("physics: state has %d brakes, world has %d",
			len(s.pressure), len(w.pressure))
	}
	w.positionM = s.positionM
	w.velocityMS = s.velocityMS
	copy(w.pressure, s.pressure)
	copy(w.command, s.command)
	w.pulseResidual = s.pulseResidual
	w.pulseCount = s.pulseCount
	return nil
}
