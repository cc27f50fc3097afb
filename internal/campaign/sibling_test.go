package campaign

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"propane/internal/hostile"
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/target"
	"propane/internal/trace"
)

// The latch target: a three-stage pipeline whose middle stage latches
// any deviation of its input and, a fixed time later, crashes, hangs
// or burns a burst of steps that only a loose step budget absorbs.
// Every flip of the producer's or the latch's input arms the latch on
// the same tick, so runs injecting different bits reach one state a
// few ticks after firing — the state a sibling's crash or hang
// follows from.
//
//	lt_cmd ──▶ PROD ──▶ lt_src ──▶ LATCH ──▶ lt_flag ──▶ SINK ──▶ lt_out
//	                                    └──▶ lt_late ──┘
const (
	latchCmd     = 100
	latchLateMs  = 20 // lt_late starts deviating this long after arming
	latchTripMs  = 60 // the latch crashes or hangs this long after arming
	latchHorizon = 400
	// latchBurnSteps is the burst a burning latch charges once it
	// trips: more than latchConfig's budget leaves, so the run hangs
	// under that budget and completes under a looser one or none.
	latchBurnSteps = latchHorizon * 8
)

type latchMode int

const (
	latchCrash latchMode = iota
	latchHang
	latchBurn
)

type latchInstance struct {
	kernel *sim.Kernel
	bus    *sim.Bus
	target.Checkpointer
}

func (in *latchInstance) Bus() *sim.Bus          { return in.bus }
func (in *latchInstance) Kernel() *sim.Kernel    { return in.kernel }
func (in *latchInstance) Run(horizon sim.Millis) { in.kernel.Run(horizon, nil) }

// latchModule is one instrumented pipeline stage.
type latchModule struct {
	sim.Reader
	step func(m *latchModule, now sim.Millis)
}

func (m *latchModule) Step(now sim.Millis) { m.step(m, now) }

type latchState struct {
	armed   bool
	armedAt sim.Millis
}

// latchStage holds the latch's hidden state.
type latchStage struct{ latchState }

func (l *latchStage) State() any { return l.latchState }

func (l *latchStage) Equal(state any) bool { return model.EqualAs(l.latchState, state) }

func (l *latchStage) Restore(state any) error {
	return model.RestoreAs(&l.latchState, state)
}

func latchTopology() *model.System {
	sys, err := model.NewBuilder("latch").
		AddModule("PROD", []string{"lt_cmd"}, []string{"lt_src"}).
		AddModule("LATCH", []string{"lt_src"}, []string{"lt_flag", "lt_late"}).
		AddModule("SINK", []string{"lt_flag", "lt_late"}, []string{"lt_out"}).
		Build()
	if err != nil {
		panic(err)
	}
	return sys
}

func newLatchInstance(mode latchMode, hook sim.ReadHook) (*latchInstance, error) {
	kernel, err := sim.NewKernel(1)
	if err != nil {
		return nil, err
	}
	bus := sim.NewBus()
	cmd, src := bus.Register("lt_cmd"), bus.Register("lt_src")
	flag, late, out := bus.Register("lt_flag"), bus.Register("lt_late"), bus.Register("lt_out")
	kernel.AddPreHook(func(sim.Millis) { cmd.Write(latchCmd) })
	ls := &latchStage{}
	kernel.AddEveryTick(&latchModule{Reader: sim.NewReader("PROD", hook), step: func(m *latchModule, now sim.Millis) {
		src.Write(m.Read(cmd, now))
	}})
	kernel.AddEveryTick(&latchModule{Reader: sim.NewReader("LATCH", hook), step: func(m *latchModule, now sim.Millis) {
		if v := m.Read(src, now); v != latchCmd && !ls.armed {
			ls.armed, ls.armedAt = true, now
		}
		flag.WriteBool(ls.armed)
		late.Write(0)
		if !ls.armed {
			return
		}
		if since := now - ls.armedAt; since >= latchLateMs {
			late.Write(uint16(since))
		}
		if now-ls.armedAt < latchTripMs {
			return
		}
		if mode == latchBurn {
			if now-ls.armedAt == latchTripMs {
				kernel.Charge(latchBurnSteps)
			}
			return
		}
		if mode == latchCrash {
			panic(fmt.Sprintf("latch: tripped at t=%dms", now))
		}
		for {
			kernel.Charge(1)
		}
	}})
	kernel.AddEveryTick(&latchModule{Reader: sim.NewReader("SINK", hook), step: func(m *latchModule, now sim.Millis) {
		out.Write(m.Read(flag, now) + m.Read(late, now))
	}})
	return &latchInstance{kernel: kernel, bus: bus, Checkpointer: target.NewCheckpointer(kernel, bus, ls)}, nil
}

func latchConfig(mode latchMode) Config {
	return Config{
		Custom: &target.Target{
			Name:     "latch",
			Topology: latchTopology,
			New: func(_ physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
				return newLatchInstance(mode, hook)
			},
		},
		TestCases: []physics.TestCase{{MassKg: 10000, VelocityMS: 50}},
		Times:     []sim.Millis{100, 200},
		Bits:      []uint{0, 1, 2},
		HorizonMs: latchHorizon,
		Budget:    sim.Budget{Steps: latchHorizon*8 + 1024},
		Workers:   1,
	}
}

// TestPruneSiblingSpliceCrashHang: runs injecting different flips that
// reach one latched state splice the crash or hang that followed it in
// the sibling run that executed first, and their records equal those
// of executing every run in full, field for field — the diffs of
// signals deviating only before the probe tick, only after it, and on
// both sides, the outcome and the panic text.
func TestPruneSiblingSpliceCrashHang(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mode    latchMode
		outcome Outcome
	}{
		{"crash", latchCrash, OutcomeCrash},
		{"hang", latchHang, OutcomeHang},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := latchConfig(tc.mode)
			off.executeAll = true
			base, baseRecs := runKeyed(t, off)
			pr, prRecs := runKeyed(t, latchConfig(tc.mode))
			assertEquivalent(t, base, pr, baseRecs, prRecs)

			spliced, executed := 0, 0
			for _, rec := range prRecs {
				if rec.Outcome != tc.outcome {
					continue
				}
				// The golden run never crashes or hangs, so a converged
				// crash or hang was spliced from a sibling.
				switch rec.Pruned {
				case PrunedConverged:
					spliced++
				case "":
					executed++
				}
			}
			if spliced == 0 || executed == 0 {
				t.Errorf("%d %s runs spliced from %d executed ones, want both > 0", spliced, tc.outcome, executed)
			}
		})
	}
}

// capturedState stands a captured snapshot in for a live instance.
type capturedState struct{ *sim.Snapshot }

func (c capturedState) Matches(snap *sim.Snapshot) bool {
	return c.Now == snap.Now && slices.Equal(c.Signals, snap.Signals)
}

func (c capturedState) CheckpointOver(*sim.Snapshot) (*sim.Snapshot, error) { return c.Snapshot, nil }

// TestPruneTrajectoryTableBound: the sibling table holds at most its
// bound, recycling the oldest entries first, whether or not other
// entries share their key; a state equal to a pending entry registers
// nothing, and one equal to a finished entry finds it.
func TestPruneTrajectoryTableBound(t *testing.T) {
	const bound = 4
	ts := newTrajectories(Config{}, bound)
	state := func(v uint16) *sim.Snapshot { return &sim.Snapshot{Now: 10, Signals: []uint16{v}} }
	// States 0 and 1 each have a key of their own; the rest share one.
	key := func(v uint16) trajectoryKey { return trajectoryKey{tick: 10, row: uint64(min(v, 2))} }
	var entries []*trajectory
	for v := uint16(0); v < 3*bound; v++ {
		found, mine := ts.visit(key(v), capturedState{state(v)}, 0, state(v))
		if found != nil || mine == nil {
			t.Fatalf("state %d: visit = %v, %v, want a new pending entry", v, found, mine)
		}
		entries = append(entries, mine)
		if found, mine := ts.visit(key(v), capturedState{state(v)}, 0, state(v)); found != nil || mine != nil {
			t.Fatalf("state %d again while pending: visit = %v, %v, want nothing", v, found, mine)
		}
		n := 0
		for _, head := range ts.byKey {
			for tr := head; tr != nil; tr = tr.next {
				n++
			}
		}
		if want := min(int(v)+1, bound); n != want {
			t.Fatalf("after %d inserts the table holds %d entries, want %d", v+1, n, want)
		}
	}
	ts.finish(entries[len(entries)-1], trace.Suffix{}, OutcomeCrash, "boom")
	last := uint16(3*bound - 1)
	if found, _ := ts.visit(key(last), capturedState{state(last)}, 0, state(last)); found != entries[len(entries)-1] {
		t.Errorf("finished entry not found: %v", found)
	}
	if _, mine := ts.visit(key(0), capturedState{state(0)}, 0, state(0)); mine == nil {
		t.Error("an evicted state is still registered")
	}
}

// TestPruneSiblingTableSharedAcrossRuns: a second Run of the same job
// list on one Golden gives the first Run's records, and every fired
// transient run that would reach the horizon splices from the table
// the first Run left instead of executing: the table outlives the Run
// that built it.
func TestPruneSiblingTableSharedAcrossRuns(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"hostile":  hostileConfig,
		"latch":    func(t *testing.T) Config { return latchConfig(latchHang) },
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := mk(t)
			cfg.Workers = 2
			g, err := RecordGolden(cfg)
			if err != nil {
				t.Fatal(err)
			}
			first, firstRecs := runKeyedOn(t, g, cfg)
			second, secondRecs := runKeyedOn(t, g, cfg)
			assertEquivalent(t, first, second, firstRecs, secondRecs)
			if first.Pruning.Executed == 0 {
				t.Fatalf("the first Run executed nothing: %+v", first.Pruning)
			}
			for key, rec := range secondRecs {
				// A run that crashed or hung before its first probe never
				// reached a state to look up.
				if rec.Pruned == "" && rec.Fired && (rec.Outcome == OutcomeOK || rec.Outcome == OutcomeDeviation) {
					t.Errorf("%s: the second Run executed it to the horizon", key)
				}
			}
			t.Logf("executed to the end: first Run %d, second %d", first.Pruning.Executed, second.Pruning.Executed)
		})
	}
}

// TestPruneSiblingTableScopedByConfig: Runs on one Golden that compare
// under other tolerance bands or another step budget neither read nor
// write the table of the Run that built it; each gives the records of
// the same Run on a fresh Golden. The sequences return to the first
// config, whose later Run shares the table again.
func TestPruneSiblingTableScopedByConfig(t *testing.T) {
	tolerant := func(cfg Config) Config {
		cfg.Tolerances = make(trace.Tolerances)
		for _, sig := range cfg.System().Signals() {
			cfg.Tolerances[sig] = 2
		}
		return cfg
	}
	budget := func(steps int64) func(Config) Config {
		return func(cfg Config) Config {
			cfg.Budget.Steps = steps
			return cfg
		}
	}
	same := func(cfg Config) Config { return cfg }
	hostileSteps := hostile.RunBudget(300).Steps
	for _, tc := range []struct {
		name     string
		base     func(t *testing.T) Config
		variants []func(Config) Config
	}{
		{"arrestor/tolerances", func(t *testing.T) Config { return tinyConfig() }, []func(Config) Config{same, tolerant, same}},
		{"arrestor/budget", func(t *testing.T) Config { return tinyConfig() }, []func(Config) Config{same, budget(1 << 20), same}},
		{"hostile/budget", hostileConfig, []func(Config) Config{same, budget(4 * hostileSteps), same}},
		{"hostile/tolerances", hostileConfig, []func(Config) Config{tolerant, same, tolerant}},
		// A burning latch hangs under its own budget and completes
		// under a loose one or none: a suffix spliced across budgets
		// would carry the wrong ending.
		{"latch/budget", func(t *testing.T) Config { return latchConfig(latchBurn) }, []func(Config) Config{same, budget(1 << 20), budget(0), same}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.base(t)
			g, err := RecordGolden(base)
			if err != nil {
				t.Fatal(err)
			}
			for i, variant := range tc.variants {
				cfg := variant(base)
				got, gotRecs := runKeyedOn(t, g, cfg)
				want, wantRecs := runKeyed(t, cfg)
				assertEquivalent(t, want, got, wantRecs, gotRecs)
				if shared := g.siblingTable(cfg) == g.siblings; shared != reflect.DeepEqual(siblingScope(cfg), siblingScope(tc.variants[0](base))) {
					t.Errorf("Run %d shares the recording's table: %v", i, shared)
				}
			}
		})
	}
}
