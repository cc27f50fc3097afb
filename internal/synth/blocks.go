package synth

// The transfer-function library: the composable per-module behaviours
// a declarative topology can reference by name. Each block is a pure
// step function over its input ports plus (for the stateful ones) a
// small hidden state that participates in checkpointing via
// model.Stateful — exactly the contract the hand-written targets
// implement, so a compiled module is indistinguishable from a
// hand-written one to the scheduler, the snapshotter and the
// injection traps.
//
// The domain-specific blocks (clock, pulse_counter, median3,
// checkpoint_law, pi_regulator, slew_limiter) replicate the arrestor
// modules' integer arithmetic to the bit, which is what lets
// examples/synth/arrestor.yaml reproduce the hand-written target's
// permeability matrix exactly. The hazard blocks (feed, mine, tarpit)
// replicate internal/hostile for crash/hang parity testing and
// fuzzing of the supervised execution layer.

import (
	"fmt"
	"slices"
	"sort"

	"propane/internal/model"
	"propane/internal/sim"
)

// blockInstance is one instantiated transfer function. Step reads the
// latched input-port values and must write every output port.
type blockInstance interface {
	Step(now sim.Millis, in, out []uint16)
	model.Stateful
}

// buildCtx carries per-instance construction context into block
// factories.
type buildCtx struct {
	kernel *sim.Kernel
	slots  int
}

// paramKind classifies a block parameter's value shape.
type paramKind int

const (
	scalarParam paramKind = iota // one number
	listParam                    // a list of numbers
)

type paramDef struct {
	kind     paramKind
	required bool
}

// blockDef describes one library entry: its arity, parameter schema
// and factory. inputs < 0 means variadic (>= 1); outputs < 0 means
// "one output per input".
type blockDef struct {
	inputs, outputs int
	params          map[string]paramDef
	// check, if non-nil, enforces cross-parameter constraints at
	// validation time (after the per-key kind checks).
	check func(p blockParams) error
	build func(p blockParams, ctx *buildCtx) (blockInstance, error)
}

// checkParams validates a module's raw parameter map against the
// schema. Every error wraps ErrInvalidSpec (via the caller's fail).
func (d blockDef) checkParams(raw map[string]any) error {
	for key, v := range raw {
		pd, ok := d.params[key]
		if !ok {
			known := make([]string, 0, len(d.params))
			for k := range d.params {
				known = append(known, k)
			}
			sort.Strings(known)
			return fmt.Errorf("unknown param %q (known: %v)", key, known)
		}
		switch pd.kind {
		case scalarParam:
			if _, err := toNumber(v); err != nil {
				return fmt.Errorf("param %q: %v", key, err)
			}
		case listParam:
			if _, err := toNumberList(v); err != nil {
				return fmt.Errorf("param %q: %v", key, err)
			}
		}
	}
	for key, pd := range d.params {
		if pd.required {
			if _, ok := raw[key]; !ok {
				return fmt.Errorf("missing required param %q", key)
			}
		}
	}
	if d.check != nil {
		return d.check(blockParams(raw))
	}
	return nil
}

// toNumber accepts the numeric shapes a param can arrive in: float64
// from the JSON decoding path, or native Go ints when a Spec is built
// programmatically (the topology fuzzer does this).
func toNumber(v any) (float64, error) {
	switch n := v.(type) {
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	case uint16:
		return float64(n), nil
	default:
		return 0, fmt.Errorf("want a number, got %T", v)
	}
}

func toNumberList(v any) ([]float64, error) {
	switch l := v.(type) {
	case []any:
		out := make([]float64, len(l))
		for i, e := range l {
			n, err := toNumber(e)
			if err != nil {
				return nil, fmt.Errorf("element %d: %v", i, err)
			}
			out[i] = n
		}
		return out, nil
	case []float64:
		return append([]float64(nil), l...), nil
	default:
		return nil, fmt.Errorf("want a list of numbers, got %T", v)
	}
}

// blockParams wraps a validated raw parameter map with typed,
// defaulting accessors. The accessors assume checkParams passed.
type blockParams map[string]any

func (p blockParams) num(key string, def float64) float64 {
	v, ok := p[key]
	if !ok {
		return def
	}
	n, err := toNumber(v)
	if err != nil {
		return def
	}
	return n
}

func (p blockParams) u16(key string, def uint16) uint16 { return uint16(p.num(key, float64(def))) }
func (p blockParams) i64(key string, def int64) int64   { return int64(p.num(key, float64(def))) }
func (p blockParams) i32(key string, def int32) int32   { return int32(p.num(key, float64(def))) }
func (p blockParams) uint(key string, def uint) uint    { return uint(p.num(key, float64(def))) }

func (p blockParams) list16(key string) []uint16 {
	v, ok := p[key]
	if !ok {
		return nil
	}
	l, err := toNumberList(v)
	if err != nil {
		return nil
	}
	out := make([]uint16, len(l))
	for i, n := range l {
		out[i] = uint16(n)
	}
	return out
}

// stateless is embedded by blocks with no hidden state.
type stateless struct{}

func (stateless) State() any           { return nil }
func (stateless) Equal(state any) bool { return state == nil }
func (stateless) Restore(state any) error {
	if state != nil {
		return fmt.Errorf("synth: state is %T, want nil (stateless block)", state)
	}
	return nil
}

// ---- domain blocks (arrestor semantics, bit-exact) ----

// clockBlock mirrors arrestor.clock: in [slot(feedback)],
// out [mscnt, slot].
type clockBlock struct {
	period uint16
	mscnt  uint16
}

func (b *clockBlock) Step(now sim.Millis, in, out []uint16) {
	slot := (in[0] + 1) % b.period
	b.mscnt++
	out[0] = b.mscnt
	out[1] = slot
}

type clockState struct{ Mscnt uint16 }

func (b *clockBlock) State() any { return clockState{Mscnt: b.mscnt} }
func (b *clockBlock) Equal(state any) bool {
	return model.EqualAs(clockState{Mscnt: b.mscnt}, state)
}
func (b *clockBlock) Restore(state any) error {
	var s clockState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.mscnt = s.Mscnt
	return nil
}

// pulseCounterBlock mirrors arrestor.distS: in [pacnt, tic1, tcnt],
// out [pulscnt, slow, stopped].
type pulseCounterBlock struct {
	slowGapTicks  uint16
	stopPersistMs uint16

	initialized bool
	lastPACNT   uint16
	pulscnt     uint16
	noPulseMs   uint16
	stopped     bool
}

func (b *pulseCounterBlock) Step(now sim.Millis, in, out []uint16) {
	pacnt, tic1, tcnt := in[0], in[1], in[2]

	if !b.initialized {
		b.lastPACNT = pacnt
		b.initialized = true
	}
	delta := pacnt - b.lastPACNT // uint16 arithmetic: wrap-safe
	b.lastPACNT = pacnt
	b.pulscnt += delta

	gap := tcnt - tic1
	slow := gap > b.slowGapTicks

	if delta == 0 {
		if b.noPulseMs < ^uint16(0) {
			b.noPulseMs++
		}
	} else {
		b.noPulseMs = 0
	}
	if b.noPulseMs >= b.stopPersistMs {
		b.stopped = true
	}

	out[0] = b.pulscnt
	out[1] = boolVal(slow)
	out[2] = boolVal(b.stopped)
}

func boolVal(v bool) uint16 {
	if v {
		return 1
	}
	return 0
}

type pulseCounterState struct {
	Initialized bool
	LastPACNT   uint16
	Pulscnt     uint16
	NoPulseMs   uint16
	Stopped     bool
}

func (b *pulseCounterBlock) State() any { return b.state() }
func (b *pulseCounterBlock) Equal(state any) bool {
	return model.EqualAs(b.state(), state)
}
func (b *pulseCounterBlock) state() pulseCounterState {
	return pulseCounterState{
		Initialized: b.initialized, LastPACNT: b.lastPACNT,
		Pulscnt: b.pulscnt, NoPulseMs: b.noPulseMs, Stopped: b.stopped,
	}
}
func (b *pulseCounterBlock) Restore(state any) error {
	var s pulseCounterState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.initialized, b.lastPACNT = s.Initialized, s.LastPACNT
	b.pulscnt, b.noPulseMs, b.stopped = s.Pulscnt, s.NoPulseMs, s.Stopped
	return nil
}

// median3Block mirrors arrestor.presS: a shift then a priming
// median-of-3 filter. in [raw], out [filtered].
type median3Block struct {
	shift uint

	hist [3]uint16
	n    int
}

func (b *median3Block) Step(now sim.Millis, in, out []uint16) {
	raw := in[0] >> b.shift
	if b.n < len(b.hist) {
		b.hist[b.n] = raw
		b.n++
	} else {
		b.hist[0], b.hist[1], b.hist[2] = b.hist[1], b.hist[2], raw
	}
	out[0] = b.median()
}

func (b *median3Block) median() uint16 {
	switch b.n {
	case 0:
		return 0
	case 1:
		return b.hist[0]
	case 2:
		// With two samples, take the newer (filter still priming).
		return b.hist[1]
	}
	a, m, c := b.hist[0], b.hist[1], b.hist[2]
	if a > m {
		a, m = m, a
	}
	if m > c {
		m = c
	}
	if a > m {
		m = a
	}
	return m
}

type median3State struct {
	Hist [3]uint16
	N    int
}

func (b *median3Block) State() any { return median3State{Hist: b.hist, N: b.n} }
func (b *median3Block) Equal(state any) bool {
	return model.EqualAs(median3State{Hist: b.hist, N: b.n}, state)
}
func (b *median3Block) Restore(state any) error {
	var s median3State
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.hist, b.n = s.Hist, s.N
	return nil
}

// checkpointLawBlock mirrors arrestor.calc: the checkpoint-table
// control law. in [pulscnt, mscnt, slow, stopped, i(feedback)],
// out [i, setValue].
type checkpointLawBlock struct {
	checkpoints []uint16
	profile     []uint16 // len(checkpoints)+1
	windowMs    uint16
	vRefPulses  uint16
	slowTarget  uint16

	lastMs, lastPc uint16
	windowPulses   uint16
}

func (b *checkpointLawBlock) Step(now sim.Millis, in, out []uint16) {
	pc, ms := in[0], in[1]
	slow, stopped := in[2] != 0, in[3] != 0
	i := in[4]

	n := uint16(len(b.checkpoints))
	if i > n {
		i = n // defensive clamp of the checkpoint index
	}
	for i < n && pc >= b.checkpoints[i] {
		i++
	}

	if ms-b.lastMs >= b.windowMs {
		b.windowPulses = pc - b.lastPc
		b.lastMs = ms
		b.lastPc = pc
	}

	target := uint32(b.profile[i]) * uint32(b.windowPulses) / uint32(b.vRefPulses)
	if target > 65535 {
		target = 65535
	}
	if slow {
		target = uint32(b.slowTarget)
	}
	if stopped {
		target = 0
	}

	out[0] = i
	out[1] = uint16(target)
}

type checkpointLawState struct {
	LastMs, LastPc uint16
	WindowPulses   uint16
}

func (b *checkpointLawBlock) State() any { return b.state() }
func (b *checkpointLawBlock) Equal(state any) bool {
	return model.EqualAs(b.state(), state)
}
func (b *checkpointLawBlock) state() checkpointLawState {
	return checkpointLawState{LastMs: b.lastMs, LastPc: b.lastPc, WindowPulses: b.windowPulses}
}
func (b *checkpointLawBlock) Restore(state any) error {
	var s checkpointLawState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.lastMs, b.lastPc, b.windowPulses = s.LastMs, s.LastPc, s.WindowPulses
	return nil
}

// piRegulatorBlock mirrors arrestor.vReg: feedforward plus clamped
// integral trim. in [setValue, measured], out [command].
type piRegulatorBlock struct {
	integShift   uint
	integLimit   int32
	trimShift    uint
	measureShift uint

	integ int32
}

func (b *piRegulatorBlock) Step(now sim.Millis, in, out []uint16) {
	sv := int32(in[0])
	iv := int32(in[1]) << b.measureShift

	err := sv - iv
	b.integ += err >> b.integShift
	if b.integ > b.integLimit {
		b.integ = b.integLimit
	}
	if b.integ < -b.integLimit {
		b.integ = -b.integLimit
	}

	o := sv + b.integ>>b.trimShift
	if o < 0 {
		o = 0
	}
	if o > 65535 {
		o = 65535
	}
	out[0] = uint16(o)
}

type piRegulatorState struct{ Integ int32 }

func (b *piRegulatorBlock) State() any { return piRegulatorState{Integ: b.integ} }
func (b *piRegulatorBlock) Equal(state any) bool {
	return model.EqualAs(piRegulatorState{Integ: b.integ}, state)
}
func (b *piRegulatorBlock) Restore(state any) error {
	var s piRegulatorState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.integ = s.Integ
	return nil
}

// slewLimiterBlock mirrors arrestor.presA: moves its output toward
// the input by at most maxSlew per step. in [target], out [current].
type slewLimiterBlock struct {
	maxSlew uint16
	current uint16
}

func (b *slewLimiterBlock) Step(now sim.Millis, in, out []uint16) {
	target := in[0]
	switch {
	case target > b.current:
		step := target - b.current
		if step > b.maxSlew {
			step = b.maxSlew
		}
		b.current += step
	case target < b.current:
		step := b.current - target
		if step > b.maxSlew {
			step = b.maxSlew
		}
		b.current -= step
	}
	out[0] = b.current
}

type slewLimiterState struct{ Current uint16 }

func (b *slewLimiterBlock) State() any { return slewLimiterState{Current: b.current} }
func (b *slewLimiterBlock) Equal(state any) bool {
	return model.EqualAs(slewLimiterState{Current: b.current}, state)
}
func (b *slewLimiterBlock) Restore(state any) error {
	var s slewLimiterState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.current = s.Current
	return nil
}

// ---- generic composable blocks ----

// gainBlock: out = clamp(in * mul / div, 65535) in integer arithmetic.
type gainBlock struct {
	stateless
	mul, div uint32
}

func (b *gainBlock) Step(now sim.Millis, in, out []uint16) {
	v := uint32(in[0]) * b.mul / b.div
	if v > 65535 {
		v = 65535
	}
	out[0] = uint16(v)
}

// saturateBlock clamps to [lo, hi].
type saturateBlock struct {
	stateless
	lo, hi uint16
}

func (b *saturateBlock) Step(now sim.Millis, in, out []uint16) {
	v := in[0]
	if v < b.lo {
		v = b.lo
	}
	if v > b.hi {
		v = b.hi
	}
	out[0] = v
}

// integrateBlock accumulates in>>shift with 16-bit wraparound.
type integrateBlock struct {
	shift uint
	acc   uint16
}

func (b *integrateBlock) Step(now sim.Millis, in, out []uint16) {
	b.acc += in[0] >> b.shift
	out[0] = b.acc
}

type integrateState struct{ Acc uint16 }

func (b *integrateBlock) State() any { return integrateState{Acc: b.acc} }
func (b *integrateBlock) Equal(state any) bool {
	return model.EqualAs(integrateState{Acc: b.acc}, state)
}
func (b *integrateBlock) Restore(state any) error {
	var s integrateState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	b.acc = s.Acc
	return nil
}

// delayBlock emits its input delayed by N steps (zeros until primed).
type delayBlock struct {
	fifo []uint16
}

func (b *delayBlock) Step(now sim.Millis, in, out []uint16) {
	out[0] = b.fifo[0]
	copy(b.fifo, b.fifo[1:])
	b.fifo[len(b.fifo)-1] = in[0]
}

type delayState struct{ Fifo []uint16 }

func (b *delayBlock) State() any {
	return delayState{Fifo: append([]uint16(nil), b.fifo...)}
}
func (b *delayBlock) Equal(state any) bool {
	s, ok := state.(delayState)
	return ok && slices.Equal(s.Fifo, b.fifo)
}
func (b *delayBlock) Restore(state any) error {
	var s delayState
	if err := model.RestoreAs(&s, state); err != nil {
		return err
	}
	if len(s.Fifo) != len(b.fifo) {
		return fmt.Errorf("synth: delay state has %d slots, block has %d", len(s.Fifo), len(b.fifo))
	}
	copy(b.fifo, s.Fifo)
	return nil
}

// lookupBlockFn maps the input through a table, clamping the index to
// the last entry.
type lookupTableBlock struct {
	stateless
	table []uint16
}

func (b *lookupTableBlock) Step(now sim.Millis, in, out []uint16) {
	idx := int(in[0])
	if idx >= len(b.table) {
		idx = len(b.table) - 1
	}
	out[0] = b.table[idx]
}

// offsetBlock adds a constant with 16-bit wraparound.
type offsetBlock struct {
	stateless
	add uint16
}

func (b *offsetBlock) Step(now sim.Millis, in, out []uint16) { out[0] = in[0] + b.add }

// sumBlock folds all inputs into one output with 16-bit wraparound.
type sumBlock struct{ stateless }

func (b *sumBlock) Step(now sim.Millis, in, out []uint16) {
	var acc uint16
	for _, v := range in {
		acc += v
	}
	out[0] = acc
}

// passthroughBlock copies each input to the matching output.
type passthroughBlock struct{ stateless }

func (b *passthroughBlock) Step(now sim.Millis, in, out []uint16) { copy(out, in) }

// ---- hazard blocks (hostile semantics) ----

// feedBlock mirrors hostile.feed: derives two working values from the
// command input and the tick, masked below the poison bit.
type feedBlock struct {
	stateless
	mask uint16
}

func (b *feedBlock) Step(now sim.Millis, in, out []uint16) {
	out[0] = (in[0] + uint16(now)) & b.mask
	out[1] = (in[0] ^ uint16(now*3)) & b.mask
}

// mineBlock mirrors hostile.mine: passes its input through unless it
// carries a poison bit, in which case it panics like target code
// dereferencing a corrupted pointer.
type mineBlock struct {
	stateless
	poison uint16
}

func (b *mineBlock) Step(now sim.Millis, in, out []uint16) {
	v := in[0]
	if v&b.poison != 0 {
		panic(fmt.Sprintf("synth: mine tripped by %#04x at t=%dms", v, now))
	}
	out[0] = v
}

// tarpitBlock mirrors hostile.tarpit: spins forever on a poisoned
// input, charging the kernel's step budget each iteration so only the
// watchdog can end the run.
type tarpitBlock struct {
	stateless
	kernel *sim.Kernel
	poison uint16
}

func (b *tarpitBlock) Step(now sim.Millis, in, out []uint16) {
	v := in[0]
	for v&b.poison != 0 {
		b.kernel.Charge(1)
	}
	out[0] = v
}

// ---- the library ----

var blockLibrary = map[string]blockDef{
	"clock": {
		inputs: 1, outputs: 2,
		params: map[string]paramDef{"slot_period": {kind: scalarParam}},
		check: func(p blockParams) error {
			if v, ok := p["slot_period"]; ok {
				if n, _ := toNumber(v); n < 1 {
					return fmt.Errorf("slot_period must be >= 1")
				}
			}
			return nil
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &clockBlock{period: p.u16("slot_period", uint16(ctx.slots))}, nil
		},
	},
	"pulse_counter": {
		inputs: 3, outputs: 3,
		params: map[string]paramDef{
			"slow_gap_ticks":  {kind: scalarParam, required: true},
			"stop_persist_ms": {kind: scalarParam, required: true},
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &pulseCounterBlock{
				slowGapTicks:  p.u16("slow_gap_ticks", 0),
				stopPersistMs: p.u16("stop_persist_ms", 0),
			}, nil
		},
	},
	"median3": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"shift": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &median3Block{shift: p.uint("shift", 0)}, nil
		},
	},
	"checkpoint_law": {
		inputs: 5, outputs: 2,
		params: map[string]paramDef{
			"checkpoints":  {kind: listParam, required: true},
			"profile":      {kind: listParam, required: true},
			"window_ms":    {kind: scalarParam, required: true},
			"v_ref_pulses": {kind: scalarParam, required: true},
			"slow_target":  {kind: scalarParam, required: true},
		},
		check: func(p blockParams) error {
			ck, _ := toNumberList(p["checkpoints"])
			pf, _ := toNumberList(p["profile"])
			if len(ck) == 0 {
				return fmt.Errorf("checkpoints must be non-empty")
			}
			if len(pf) != len(ck)+1 {
				return fmt.Errorf("profile needs len(checkpoints)+1 = %d entries, got %d", len(ck)+1, len(pf))
			}
			if n, _ := toNumber(p["v_ref_pulses"]); n < 1 {
				return fmt.Errorf("v_ref_pulses must be >= 1")
			}
			return nil
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &checkpointLawBlock{
				checkpoints: p.list16("checkpoints"),
				profile:     p.list16("profile"),
				windowMs:    p.u16("window_ms", 0),
				vRefPulses:  p.u16("v_ref_pulses", 1),
				slowTarget:  p.u16("slow_target", 0),
			}, nil
		},
	},
	"pi_regulator": {
		inputs: 2, outputs: 1,
		params: map[string]paramDef{
			"integ_shift":   {kind: scalarParam},
			"integ_limit":   {kind: scalarParam},
			"trim_shift":    {kind: scalarParam},
			"measure_shift": {kind: scalarParam},
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &piRegulatorBlock{
				integShift:   p.uint("integ_shift", 4),
				integLimit:   p.i32("integ_limit", 16384),
				trimShift:    p.uint("trim_shift", 2),
				measureShift: p.uint("measure_shift", 8),
			}, nil
		},
	},
	"slew_limiter": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"max_slew": {kind: scalarParam, required: true}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &slewLimiterBlock{maxSlew: p.u16("max_slew", 0)}, nil
		},
	},
	"gain": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{
			"mul": {kind: scalarParam},
			"div": {kind: scalarParam},
		},
		check: func(p blockParams) error {
			if v, ok := p["div"]; ok {
				if n, _ := toNumber(v); n < 1 {
					return fmt.Errorf("div must be >= 1")
				}
			}
			return nil
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &gainBlock{mul: uint32(p.i64("mul", 1)), div: uint32(p.i64("div", 1))}, nil
		},
	},
	"saturate": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{
			"lo": {kind: scalarParam},
			"hi": {kind: scalarParam},
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &saturateBlock{lo: p.u16("lo", 0), hi: p.u16("hi", 65535)}, nil
		},
	},
	"integrate": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"shift": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &integrateBlock{shift: p.uint("shift", 0)}, nil
		},
	},
	"delay": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"ticks": {kind: scalarParam}},
		check: func(p blockParams) error {
			if v, ok := p["ticks"]; ok {
				if n, _ := toNumber(v); n < 1 || n > 1024 {
					return fmt.Errorf("ticks must be in [1, 1024]")
				}
			}
			return nil
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &delayBlock{fifo: make([]uint16, p.i64("ticks", 1))}, nil
		},
	},
	"lookup": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"table": {kind: listParam, required: true}},
		check: func(p blockParams) error {
			if l, _ := toNumberList(p["table"]); len(l) == 0 {
				return fmt.Errorf("table must be non-empty")
			}
			return nil
		},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &lookupTableBlock{table: p.list16("table")}, nil
		},
	},
	"offset": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"add": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &offsetBlock{add: p.u16("add", 0)}, nil
		},
	},
	"sum": {
		inputs: -1, outputs: 1,
		params: map[string]paramDef{},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &sumBlock{}, nil
		},
	},
	"passthrough": {
		inputs: -1, outputs: -1,
		params: map[string]paramDef{},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &passthroughBlock{}, nil
		},
	},
	"feed": {
		inputs: 1, outputs: 2,
		params: map[string]paramDef{"mask": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &feedBlock{mask: p.u16("mask", 0x7FFF)}, nil
		},
	},
	"mine": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"poison_mask": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &mineBlock{poison: p.u16("poison_mask", 0x8000)}, nil
		},
	},
	"tarpit": {
		inputs: 1, outputs: 1,
		params: map[string]paramDef{"poison_mask": {kind: scalarParam}},
		build: func(p blockParams, ctx *buildCtx) (blockInstance, error) {
			return &tarpitBlock{kernel: ctx.kernel, poison: p.u16("poison_mask", 0x8000)}, nil
		},
	},
}

// lookupBlock returns the library entry for a transfer-function name.
func lookupBlock(name string) (blockDef, bool) {
	d, ok := blockLibrary[name]
	return d, ok
}

// blockNames returns the library's names, sorted.
func blockNames() []string {
	names := make([]string, 0, len(blockLibrary))
	for n := range blockLibrary {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
