// Package synth compiles declarative target descriptions — YAML or
// JSON documents naming modules, 16-bit signals, wiring, per-module
// transfer functions, a slot schedule and an environment binding —
// onto the existing internal/model + internal/sim machinery. The
// compiled result is a *target.Target: runnable, Checkpointable, and
// indistinguishable from a hand-written target, so checkpoint
// fast-forward and run-result memoization apply unchanged.
//
// The paper's framework (permeability, exposure, propagation trees)
// is topology-generic; this package makes topology a config artifact
// instead of a Go package, so scenario diversity no longer requires
// writing new engine code.
package synth

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"strings"

	"propane/internal/campaign"
	"propane/internal/synth/workload"
)

// ErrInvalidSpec is wrapped by every spec validation error, so
// callers can distinguish a malformed topology description from an
// execution failure with errors.Is.
var ErrInvalidSpec = errors.New("synth: invalid spec")

func invalidf(format string, args ...any) error {
	return fmt.Errorf(format+": %w", append(args, ErrInvalidSpec)...)
}

// MaxSignalWidth is the widest signal the engine models; the sim
// layer carries uint16 values, so wider declarations are rejected.
const MaxSignalWidth = 16

// Spec is the root of a declarative target description.
type Spec struct {
	// Name becomes the target/registry instance name.
	Name string `json:"name"`
	// Description is shown by propane -list.
	Description string `json:"description,omitempty"`
	// Slots is the kernel slot count (default 1).
	Slots int `json:"slots,omitempty"`
	// SlotSignal optionally names the signal whose value selects the
	// active slot (kernel.UseSlotSignal); empty means now % Slots.
	SlotSignal string `json:"slot_signal,omitempty"`
	// Signals optionally declares signals with explicit widths. Any
	// signal referenced by a module but not declared here defaults to
	// the full 16 bits. When the section is present, every wire must
	// resolve to a declared signal (dangling-wire detection).
	Signals []SignalSpec `json:"signals,omitempty"`
	// Environment drives the target's inputs and consumes its outputs.
	Environment EnvSpec `json:"environment"`
	// Modules lists the software modules in schedule-declaration order.
	Modules []ModuleSpec `json:"modules"`
	// SystemOutputs names the signals observed at the system boundary.
	SystemOutputs []string `json:"system_outputs"`
	// Campaign maps tier names ("quick", "full", ...) to campaign
	// parameterisations, making the document a self-contained
	// registry instance.
	Campaign map[string]TierSpec `json:"campaign,omitempty"`
}

// SignalSpec declares one named signal and its bit width.
type SignalSpec struct {
	Name string `json:"name"`
	// Width in bits, 1..16. Zero means "not given" and is rejected —
	// a declared signal must carry at least one bit.
	Width int `json:"width"`
}

// EnvSpec selects and parameterises the environment model.
type EnvSpec struct {
	// Kind selects the environment: "arrestor" (cable-physics world
	// with sensor/actuator glue), "ramp" (deterministic mass/velocity
	// ramp stimulus) or "waveform" (seeded pseudo-random stimulus for
	// fuzzed topologies).
	Kind string `json:"kind"`
	// Params are numeric environment parameters (e.g. ticks_per_ms,
	// pulses_per_meter). Unknown keys are rejected.
	Params map[string]float64 `json:"params,omitempty"`
	// Bind maps environment roles (e.g. "command", "adc") to signal
	// names in the topology.
	Bind map[string]string `json:"bind,omitempty"`
}

// ModuleSpec declares one software module.
type ModuleSpec struct {
	Name string `json:"name"`
	// Schedule is "every-tick", "background" or "slot:N".
	Schedule string `json:"schedule"`
	// Fn names the transfer function from the block library.
	Fn string `json:"fn"`
	// Inputs and Outputs are signal names in port order. A signal may
	// appear in both lists (local feedback).
	Inputs  []string `json:"inputs"`
	Outputs []string `json:"outputs"`
	// Params parameterise the block (numbers, bools, or lists of
	// numbers, depending on the block).
	Params map[string]any `json:"params,omitempty"`
}

// TierSpec parameterises one campaign tier of the document.
type TierSpec struct {
	Workload       workload.Spec `json:"workload"`
	TimesMs        []int64       `json:"times_ms"`
	Bits           []uint        `json:"bits"`
	HorizonMs      int64         `json:"horizon_ms"`
	DirectWindowMs int64         `json:"direct_window_ms,omitempty"`
	// BudgetSteps bounds kernel work per run (hang detection); zero
	// means unbounded.
	BudgetSteps int64 `json:"budget_steps,omitempty"`
	// Adaptive selects sequential CI-driven sampling for this tier:
	// "off" (or absent), "auto", "force". CIEpsilon is the stopping
	// half-width ε (0 keeps the 0.05 default).
	Adaptive  string  `json:"adaptive,omitempty"`
	CIEpsilon float64 `json:"ci_epsilon,omitempty"`
}

// Parse decodes a topology document. Documents starting with '{' are
// JSON; everything else goes through the YAML-subset decoder (which
// normalises to the same generic tree, so both forms are synonyms).
// The returned spec is validated.
func Parse(data []byte) (*Spec, error) {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	var jsonBytes []byte
	if len(trimmed) > 0 && trimmed[0] == '{' {
		jsonBytes = trimmed
	} else {
		tree, err := decodeYAML(data)
		if err != nil {
			return nil, err
		}
		jsonBytes, err = json.Marshal(tree)
		if err != nil {
			return nil, fmt.Errorf("synth: re-encoding yaml tree: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonBytes))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, invalidf("synth: decoding spec: %v", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Serialize renders the spec as canonical JSON: encoding/json sorts
// map keys and both int64(8) and float64(8) render as "8", so a spec
// parsed from YAML and the same spec parsed from its own JSON
// serialisation produce identical bytes.
func (s *Spec) Serialize() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		return nil, fmt.Errorf("synth: serializing spec: %w", err)
	}
	return buf.Bytes(), nil
}

// Digest is the sha256 of the canonical serialisation — the spec's
// identity across load → compile → re-serialize → load round trips.
func (s *Spec) Digest() (string, error) {
	data, err := s.Serialize()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// parseSlot extracts N from a "slot:N" schedule string.
func parseSlot(schedule string) (int, bool) {
	rest, ok := strings.CutPrefix(schedule, "slot:")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Validate checks the document's internal consistency. Every
// returned error wraps ErrInvalidSpec. Topology-level constraints
// (single driver per signal, boundary existence) are additionally
// enforced by model.Builder at compile time; Validate catches what
// the builder cannot see — widths, schedules, block names/arities,
// environment bindings and tier parameters.
func (s *Spec) Validate() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, invalidf(format, args...))
	}

	if s.Name == "" {
		fail("synth: spec needs a name")
	}
	slots := s.Slots
	if slots == 0 {
		slots = 1
	}
	if slots < 1 {
		fail("synth: slots must be >= 1 (got %d)", s.Slots)
	}

	declared := make(map[string]int) // name → width
	for i, sig := range s.Signals {
		if sig.Name == "" {
			fail("synth: signal %d has an empty name", i)
			continue
		}
		if _, dup := declared[sig.Name]; dup {
			fail("synth: duplicate signal declaration %q", sig.Name)
			continue
		}
		if sig.Width < 1 {
			fail("synth: signal %q declares width %d; a signal must carry at least 1 bit", sig.Name, sig.Width)
			continue
		}
		if sig.Width > MaxSignalWidth {
			fail("synth: signal %q declares width %d; the engine models at most %d bits", sig.Name, sig.Width, MaxSignalWidth)
			continue
		}
		declared[sig.Name] = sig.Width
	}
	checkWire := func(mod, role, name string) {
		if name == "" {
			fail("synth: module %q has an empty %s signal name", mod, role)
			return
		}
		if len(declared) > 0 {
			if _, ok := declared[name]; !ok {
				fail("synth: module %q %s %q is a dangling wire: not in the signals section", mod, role, name)
			}
		}
	}

	if len(s.Modules) == 0 {
		fail("synth: spec declares no modules")
	}
	seenMod := make(map[string]bool)
	for _, m := range s.Modules {
		if m.Name == "" {
			fail("synth: a module has an empty name")
			continue
		}
		if seenMod[m.Name] {
			fail("synth: duplicate module name %q", m.Name)
			continue
		}
		seenMod[m.Name] = true

		switch m.Schedule {
		case "every-tick", "background":
		default:
			if n, ok := parseSlot(m.Schedule); !ok {
				fail("synth: module %q: unknown schedule %q (want every-tick, background or slot:N)", m.Name, m.Schedule)
			} else if n < 0 || n >= slots {
				fail("synth: module %q: slot %d out of range [0, %d)", m.Name, n, slots)
			}
		}

		def, ok := lookupBlock(m.Fn)
		if !ok {
			fail("synth: module %q: unknown transfer function %q (have %s)", m.Name, m.Fn, strings.Join(blockNames(), ", "))
		} else {
			if def.inputs >= 0 && len(m.Inputs) != def.inputs {
				fail("synth: module %q: fn %q takes %d input(s), got %d", m.Name, m.Fn, def.inputs, len(m.Inputs))
			}
			if def.inputs < 0 && len(m.Inputs) < 1 {
				fail("synth: module %q: fn %q needs at least one input", m.Name, m.Fn)
			}
			wantOut := def.outputs
			if wantOut < 0 { // variadic: outputs mirror inputs
				wantOut = len(m.Inputs)
			}
			if len(m.Outputs) != wantOut {
				fail("synth: module %q: fn %q yields %d output(s), got %d", m.Name, m.Fn, wantOut, len(m.Outputs))
			}
			if err := def.checkParams(m.Params); err != nil {
				fail("synth: module %q: %v", m.Name, err)
			}
		}
		seenIn := make(map[string]bool)
		for _, in := range m.Inputs {
			if seenIn[in] {
				fail("synth: module %q lists input %q twice", m.Name, in)
			}
			seenIn[in] = true
			checkWire(m.Name, "input", in)
		}
		seenOut := make(map[string]bool)
		for _, out := range m.Outputs {
			if seenOut[out] {
				fail("synth: module %q lists output %q twice", m.Name, out)
			}
			seenOut[out] = true
			checkWire(m.Name, "output", out)
		}
	}

	if s.SlotSignal != "" && len(declared) > 0 {
		if _, ok := declared[s.SlotSignal]; !ok {
			fail("synth: slot_signal %q is not in the signals section", s.SlotSignal)
		}
	}
	if len(s.SystemOutputs) == 0 {
		fail("synth: spec declares no system_outputs")
	}
	for _, out := range s.SystemOutputs {
		checkWire("(system)", "system output", out)
	}

	if err := validateEnv(s.Environment, declared); err != nil {
		errs = append(errs, err)
	}

	for tier, ts := range s.Campaign {
		if err := ts.Workload.Validate(); err != nil {
			fail("synth: campaign tier %q: %v", tier, err)
		}
		if len(ts.TimesMs) == 0 {
			fail("synth: campaign tier %q: no injection times", tier)
		}
		for _, t := range ts.TimesMs {
			if t < 0 {
				fail("synth: campaign tier %q: negative injection time %d", tier, t)
			}
		}
		if len(ts.Bits) == 0 {
			fail("synth: campaign tier %q: no bits", tier)
		}
		for _, b := range ts.Bits {
			if b >= MaxSignalWidth {
				fail("synth: campaign tier %q: bit %d out of range [0, %d)", tier, b, MaxSignalWidth)
			}
		}
		if ts.HorizonMs < 1 {
			fail("synth: campaign tier %q: horizon_ms must be >= 1", tier)
		}
		if ts.DirectWindowMs < 0 {
			fail("synth: campaign tier %q: negative direct_window_ms", tier)
		}
		if ts.BudgetSteps < 0 {
			fail("synth: campaign tier %q: negative budget_steps", tier)
		}
		if _, err := campaign.ParseAdaptiveMode(ts.Adaptive); err != nil {
			fail("synth: campaign tier %q: adaptive must be off, auto or force (got %q)", tier, ts.Adaptive)
		}
		if !(ts.CIEpsilon >= 0 && ts.CIEpsilon < 0.5) { // also rejects NaN
			fail("synth: campaign tier %q: ci_epsilon %v outside [0, 0.5)", tier, ts.CIEpsilon)
		}
	}

	return errors.Join(errs...)
}
