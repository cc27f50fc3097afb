package campaign

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"propane/internal/arrestor"
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

// capturedState stands a captured snapshot in for a live instance;
// capturing it copies the snapshot, into dst when there is one.
type capturedState struct{ *sim.Snapshot }

func (c capturedState) Matches(snap *sim.Snapshot) bool {
	return c.Now == snap.Now && slices.Equal(c.Signals, snap.Signals)
}

func (c capturedState) CheckpointOver(dst, _ *sim.Snapshot) (*sim.Snapshot, error) {
	if dst == nil {
		dst = &sim.Snapshot{}
	}
	dst.Now, dst.Used = c.Now, c.Used
	dst.Signals = append(dst.Signals[:0], c.Signals...)
	return dst, nil
}

// failingState is a live state whose capture scribbles over dst and
// then fails.
type failingState struct{ capturedState }

func (f failingState) CheckpointOver(dst, base *sim.Snapshot) (*sim.Snapshot, error) {
	if dst != nil {
		dst.Now, dst.Signals[0] = -1, 0xdead
	}
	return nil, fmt.Errorf("capture failed")
}

// spliceLog counts the suffixes visits splice.
type spliceLog struct{ n int }

func (l *spliceLog) Splice(trace.Suffix) error {
	l.n++
	return nil
}

// siblingTable is a sibling table over one-signal states at tick 10:
// states 0 and 1 each have a key of their own, the rest share one.
type siblingTable struct {
	t  *testing.T
	ts *trajectories
}

func newSiblingTable(t *testing.T, bound int) siblingTable {
	return siblingTable{t: t, ts: newTrajectories(Config{}, bound)}
}

func siblingState(v uint16) *sim.Snapshot { return &sim.Snapshot{Now: 10, Signals: []uint16{v}} }

func siblingKey(v uint16) trajectoryKey { return trajectoryKey{tick: 10, row: uint64(min(v, 2))} }

// visit looks state v up, splicing into log.
func (st siblingTable) visit(v uint16, log *spliceLog) (spliced, *trajectory) {
	st.t.Helper()
	sp, mine, err := st.ts.visit(siblingKey(v), capturedState{siblingState(v)}, 0, siblingState(v), log)
	if err != nil {
		st.t.Fatalf("state %d: visit: %v", v, err)
	}
	return sp, mine
}

// register visits state v, which must register a new pending entry.
func (st siblingTable) register(v uint16) *trajectory {
	st.t.Helper()
	var log spliceLog
	sp, mine := st.visit(v, &log)
	if sp.ok || log.n != 0 || mine == nil {
		st.t.Fatalf("state %d: visit = %+v, %v after %d splices, want a new pending entry", v, sp, mine, log.n)
	}
	return mine
}

// entries counts the table's entries and checks that each holds a
// state of its own key.
func (st siblingTable) entries() int {
	st.t.Helper()
	n := 0
	for key, head := range st.ts.byKey {
		for tr := head; tr != nil; tr = tr.next {
			if tr.key != key || len(tr.state.Signals) != 1 || siblingKey(tr.state.Signals[0]) != key || tr.state.Now != 10 {
				st.t.Errorf("entry under %+v holds state %+v", key, tr.state)
			}
			n++
		}
	}
	return n
}

// TestPruneTrajectoryTableBound: the sibling table holds at most its
// bound, evicting the oldest entries first, whether or not other
// entries share their key; a state equal to a pending entry registers
// nothing, and one equal to a finished entry splices its suffix and
// takes its ending.
func TestPruneTrajectoryTableBound(t *testing.T) {
	const bound = 4
	st := newSiblingTable(t, bound)
	var entries []*trajectory
	for v := uint16(0); v < 3*bound; v++ {
		entries = append(entries, st.register(v))
		var log spliceLog
		if sp, mine := st.visit(v, &log); sp.ok || log.n != 0 || mine != nil {
			t.Fatalf("state %d again while pending: visit = %+v, %v after %d splices, want nothing", v, sp, mine, log.n)
		}
		if got, want := st.entries(), min(int(v)+1, bound); got != want {
			t.Fatalf("after %d inserts the table holds %d entries, want %d", v+1, got, want)
		}
	}
	for v, tr := range entries {
		st.ts.finish(tr, trace.Suffix{}, OutcomeCrash, fmt.Sprint(v))
	}
	// The newest entries remain, each found with its own ending...
	for v := uint16(2 * bound); v < 3*bound; v++ {
		var log spliceLog
		if sp, mine := st.visit(v, &log); !sp.ok || sp.outcome != OutcomeCrash || sp.detail != fmt.Sprint(v) || log.n != 1 || mine != nil {
			t.Errorf("finished state %d: visit = %+v, %v after %d splices, want its crash spliced once", v, sp, mine, log.n)
		}
	}
	// ...and the oldest were evicted.
	for v := uint16(0); v < 2*bound; v++ {
		if sp, _ := st.visit(v, &spliceLog{}); sp.ok {
			t.Errorf("evicted state %d is still found", v)
		}
	}
}

// TestPruneSiblingEvictedPendingNotReused: a full table evicting an
// entry still pending drops it, so the run holding it may finish it
// without touching the entry that took its slot; a finished entry is
// recycled for the next registration.
func TestPruneSiblingEvictedPendingNotReused(t *testing.T) {
	st := newSiblingTable(t, 2)
	pending, finished := st.register(0), st.register(1)
	st.ts.finish(finished, trace.Suffix{}, OutcomeHang, "")
	taker := st.register(3)
	if taker == pending || taker.state == pending.state {
		t.Fatal("the evicted pending entry was reused")
	}
	st.ts.finish(pending, trace.Suffix{}, OutcomeCrash, "late")
	if taker.done || taker.outcome != "" || taker.detail != "" || taker.state.Signals[0] != 3 {
		t.Errorf("finishing the evicted entry changed the new occupant: %+v", taker)
	}
	var log spliceLog
	if sp, mine := st.visit(3, &log); sp.ok || mine != nil {
		t.Errorf("state 3, pending: visit = %+v, %v, want nothing", sp, mine)
	}
	// The table is full again: registering evicts the finished entry
	// and recycles it, snapshot and all.
	state := finished.state
	if got := st.register(4); got != finished || got.state != state || got.done || got.outcome != "" {
		t.Errorf("the evicted finished entry was not recycled as a pending one: %+v", got)
	}
	if st.entries() != 2 {
		t.Errorf("the table holds %d entries, want 2", st.entries())
	}
	if sp, mine := st.visit(1, &log); sp.ok || mine == nil {
		t.Error("the recycled entry's old state is still found")
	}
}

// TestPruneSiblingFailedCapture: a capture that fails after it has
// scribbled over the snapshot of the finished entry it was to recycle
// leaves no entry with an overwritten state; its slot stays free, so
// the next registration evicts nothing.
func TestPruneSiblingFailedCapture(t *testing.T) {
	st := newSiblingTable(t, 2)
	for _, v := range []uint16{0, 1} {
		st.ts.finish(st.register(v), trace.Suffix{}, "", "")
	}
	var log spliceLog
	fail := failingState{capturedState{siblingState(3)}}
	if sp, mine, err := st.ts.visit(siblingKey(3), fail, 0, siblingState(3), &log); sp.ok || mine != nil || err != nil {
		t.Fatalf("failed capture: visit = %+v, %v, %v, want nothing", sp, mine, err)
	}
	if got := st.entries(); got != 1 {
		t.Fatalf("after a failed capture the table holds %d entries, want 1", got)
	}
	st.register(4)
	if sp, _ := st.visit(1, &log); !sp.ok {
		t.Error("the registration after a failed capture evicted an entry")
	}
	if got := st.entries(); got != 2 {
		t.Errorf("the table holds %d entries, want 2", got)
	}
}

// TestPruneSiblingRecycleAllocs: in a full table of finished entries,
// registering a paper state whose hidden states all equal golden's
// recycles the evicted entry and allocates nothing, its finish
// included.
func TestPruneSiblingRecycleAllocs(t *testing.T) {
	inst, err := arrestor.NewInstance(arrestor.DefaultConfig(), physics.TestCase{MassKg: 14000, VelocityMS: 60}, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Run(1000)
	golden, err := inst.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	const bound = 8
	ts := newTrajectories(Config{}, bound)
	var log spliceLog
	var suffix trace.Suffix
	row := uint64(0)
	register := func() {
		// Each registration is a state of its own: the key differs.
		row++
		_, mine, err := ts.visit(trajectoryKey{tick: 1000, row: row}, inst, 0, golden, &log)
		if err != nil || mine == nil {
			t.Fatalf("visit = %v, %v, want a new pending entry", mine, err)
		}
		ts.finish(mine, suffix, "", "")
	}
	for i := 0; i < bound; i++ {
		register()
	}
	if allocs := testing.AllocsPerRun(20, register); allocs != 0 {
		t.Errorf("a registration into a full table of finished entries allocates %v times, want 0", allocs)
	}
	if log.n != 0 {
		t.Errorf("%d registrations spliced", log.n)
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

// TestPruneSiblingRecycleEquivalence: with a sibling table so small
// that registrations evict and recycle entries all the time, four
// workers produce the records of executing every run. Hostile quick
// crashes and hangs, but its runs end or rejoin golden before an
// early probe registers a state; the latch configs carry crash and
// hang suffixes through the recycled entries.
func TestPruneSiblingRecycleEquivalence(t *testing.T) {
	paperQuick := func(t *testing.T) Config {
		cases, err := physics.Grid(2, 2, 8000, 20000, 40, 80)
		if err != nil {
			t.Fatal(err)
		}
		return Config{
			Arrestor:       arrestor.DefaultConfig(),
			TestCases:      cases,
			Times:          []sim.Millis{1000, 2500, 4000},
			Bits:           []uint{0, 5, 10, 15},
			HorizonMs:      6000,
			DirectWindowMs: 500,
		}
	}
	for _, tc := range []struct {
		name      string
		mk        func(t *testing.T) Config
		bound     int
		registers bool
	}{
		{"paper/quick", paperQuick, 16, true},
		{"hostile/quick", hostileConfig, 16, false},
		{"latch/crash", func(t *testing.T) Config { return latchConfig(latchCrash) }, 2, true},
		{"latch/hang", func(t *testing.T) Config { return latchConfig(latchHang) }, 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			off := tc.mk(t)
			off.executeAll = true
			want, wantRecs := runKeyed(t, off)

			cfg := tc.mk(t)
			cfg.Workers = 4
			g, err := RecordGolden(cfg)
			if err != nil {
				t.Fatal(err)
			}
			g.siblings = newTrajectories(siblingScope(cfg), tc.bound)
			got, gotRecs := runKeyedOn(t, g, cfg)
			assertEquivalent(t, want, got, wantRecs, gotRecs)
			if full := len(g.siblings.ring) == tc.bound; full != tc.registers {
				t.Errorf("the table holds %d of %d entries", len(g.siblings.ring), tc.bound)
			}
		})
	}
}
