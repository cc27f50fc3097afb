package campaign

// Equivalence suite for the pruning/memoization path: for every
// target topology a campaign run with pruning forced on must produce
// a Result bit-identical to the same campaign with pruning off (every
// run fully executed). Runs under -race in CI alongside the
// checkpoint suite, stressing the shared sibling table and memo
// backend.

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"propane/internal/inject"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/target"
)

// modelsConfig guarantees work for every transient classification: at
// any fired (port, instant) one of the two StuckAt models is the
// identity on bit 3 (no-op prune) and the other corrupts the value to
// exactly what BitFlip{3} produces (a hit in its in-memory memo
// backend on the second of the pair in serial order — Workers is
// pinned to 1 for that guarantee).
func modelsConfig() Config {
	cfg := tinyConfig()
	cfg.Bits = nil
	cfg.Models = []inject.ErrorModel{
		inject.BitFlip{Bit: 3},
		inject.StuckAt{Bit: 3, One: false},
		inject.StuckAt{Bit: 3, One: true},
	}
	cfg.Workers = 1
	cfg.Memo = &mapMemo{m: make(map[MemoKey]MemoEntry)}
	return cfg
}

// mapMemo is an in-memory MemoBackend. It keeps and serves the
// executed runs' diff slices themselves, which nothing modifies.
type mapMemo struct {
	mu sync.Mutex
	m  map[MemoKey]MemoEntry
}

func (mm *mapMemo) GetMemo(k MemoKey) (MemoEntry, bool) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	e, ok := mm.m[k]
	return e, ok
}

func (mm *mapMemo) PutMemo(k MemoKey, e MemoEntry) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.m[k] = e
}

// TestPruneEquivalence proves the tentpole contract on every target:
// pruned, memoized and converged runs yield the same Result matrix,
// run for run, as executing every injection in full.
func TestPruneEquivalence(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		// hostile covers crash and hang outcomes: a spliced crash must
		// synthesize the exact crash record of the executed one.
		"hostile": hostileConfig,
		// models guarantees no-op prunes and memo-store hits (see
		// modelsConfig); the oracle executes with the backend unused.
		"models": func(t *testing.T) Config { return modelsConfig() },
		// persistent exercises the window-value no-op rule.
		"persistent": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.FaultDurationMs = 400
			return cfg
		},
		"reduced": func(t *testing.T) Config {
			if testing.Short() {
				t.Skip("reduced equivalence skipped in -short mode")
			}
			return ReducedConfig()
		},
	}
	for name, mk := range configs {
		t.Run(name, func(t *testing.T) {
			off := mk(t)
			off.executeAll = true
			base, baseRecs := runKeyed(t, off)

			pr, prRecs := runKeyed(t, mk(t))

			assertEquivalent(t, base, pr, baseRecs, prRecs)

			if base.Pruning.Total() != 0 {
				t.Errorf("executeAll still pruned: %+v", base.Pruning)
			}
			// Every unfired record must have been predicted from the golden
			// run — an unfired trap that slipped through to execution
			// means the predictions are incomplete.
			if pr.Pruning.Unfired != pr.Unfired {
				t.Errorf("pruned %d unfired runs, result counts %d unfired traps", pr.Pruning.Unfired, pr.Unfired)
			}
			if name == "models" {
				if pr.Pruning.NoOp == 0 {
					t.Errorf("models config produced no no-op prunes: %+v", pr.Pruning)
				}
				if pr.Pruning.Store == 0 {
					t.Errorf("models config produced no memo-store hits: %+v", pr.Pruning)
				}
			}
			// The per-record labels must agree with the aggregate counters.
			counts := PruneSignalCounts{}
			for _, rec := range prRecs {
				switch rec.Pruned {
				case PrunedNoOp:
					counts.NoOp++
				case PrunedUnfired:
					counts.Unfired++
				case PrunedMemoStore:
					counts.Store++
				case PrunedConverged:
					counts.Converged++
				case "":
					counts.Executed++
				default:
					t.Errorf("unknown pruned label %q", rec.Pruned)
				}
			}
			got := PruneSignalCounts{
				NoOp: pr.Pruning.NoOp, Unfired: pr.Pruning.Unfired,
				Store: pr.Pruning.Store, Converged: pr.Pruning.Converged,
				Executed: pr.Pruning.Executed,
			}
			if counts != got {
				t.Errorf("record labels %+v disagree with Result.Pruning %+v", counts, got)
			}
		})
	}
}

// TestPruneTrapDetachEquivalence: a trap that detaches from a reader
// once it can no longer fire there must leave every record exactly as
// a trap that stays attached for the whole run. The control wraps the
// instance constructor so every read hook it installs never asks to
// detach; both campaigns prune, so executed, converged and memoized
// runs are all compared.
func TestPruneTrapDetachEquivalence(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		"hostile":   hostileConfig,
	}
	for name, mk := range configs {
		for _, dur := range []sim.Millis{0, 400} {
			t.Run(fmt.Sprintf("%s/duration=%d", name, dur), func(t *testing.T) {
				detach := mk(t)
				detach.FaultDurationMs = dur
				det, detRecs := runKeyed(t, detach)

				attached := detach
				attached.Custom = &target.Target{
					Name:     "never-detach",
					Topology: detach.topology,
					New: func(tc physics.TestCase, hook sim.ReadHook) (target.RunnableInstance, error) {
						if hook != nil {
							inner := hook
							hook = func(module, signal string, sig *sim.Signal, now sim.Millis) bool {
								inner(module, signal, sig, now)
								return false
							}
						}
						return detach.NewInstance(tc, hook)
					},
				}
				att, attRecs := runKeyed(t, attached)

				assertEquivalent(t, att, det, attRecs, detRecs)
				if len(detRecs) == 0 {
					t.Fatal("campaign produced no records")
				}
			})
		}
	}
}

// TestPruneAutoFallsBackUnderInstrument: a pruned run never builds a
// target instance, so an Instrument hook would be skipped; an
// instrumented campaign must execute everything — and still produce
// the baseline Result with every attachment present.
func TestPruneAutoFallsBackUnderInstrument(t *testing.T) {
	attach := func(inst Instance, caseIdx int) (any, error) { return caseIdx, nil }

	off := tinyConfig()
	off.executeAll = true
	off.Instrument = attach
	base, baseRecs := runKeyed(t, off)

	auto := tinyConfig()
	auto.Instrument = attach
	pr, prRecs := runKeyed(t, auto)

	assertEquivalent(t, base, pr, baseRecs, prRecs)
	if pr.Pruning.Total() != 0 {
		t.Errorf("instrumented campaign pruned: %+v", pr.Pruning)
	}
	for key, rec := range prRecs {
		if rec.Attachment != rec.CaseIndex {
			t.Errorf("%s: attachment %v, want case index %d", key, rec.Attachment, rec.CaseIndex)
		}
	}
}

// refReadEvent and refReadLog are the reference the streamed predictor
// is checked against: log every instrumented read of the golden run,
// then distill per-instant predictions by binary search.
type refReadEvent struct {
	tick  sim.Millis
	value uint16
}

type refReadLog map[portKey][]refReadEvent

func (l refReadLog) hook() sim.ReadHook {
	return func(module, signal string, sig *sim.Signal, now sim.Millis) bool {
		k := portKey{module: module, signal: signal}
		l[k] = append(l[k], refReadEvent{tick: now, value: sig.Read()})
		return false
	}
}

func (l refReadLog) distill(times []sim.Millis, faultDuration sim.Millis) casePredictions {
	cp := casePredictions{}
	if faultDuration <= 0 {
		cp.transient = make(map[portKey]map[sim.Millis]transientPred, len(l))
		for k, evs := range l {
			m := make(map[sim.Millis]transientPred, len(times))
			for _, at := range times {
				i := sort.Search(len(evs), func(i int) bool { return evs[i].tick >= at })
				p := transientPred{}
				if i < len(evs) {
					p = transientPred{fires: true, fireTick: evs[i].tick, value: evs[i].value}
				}
				m[at] = p
			}
			cp.transient[k] = m
		}
		return cp
	}
	cp.persistent = make(map[portKey]map[sim.Millis]persistentPred, len(l))
	for k, evs := range l {
		m := make(map[sim.Millis]persistentPred, len(times))
		for _, at := range times {
			i := sort.Search(len(evs), func(i int) bool { return evs[i].tick >= at })
			p := persistentPred{}
			seen := make(map[uint16]bool)
			for ; i < len(evs) && evs[i].tick <= at+faultDuration; i++ {
				if !p.fires {
					p.fires = true
					p.fireTick = evs[i].tick
				}
				if !seen[evs[i].value] {
					seen[evs[i].value] = true
					p.values = append(p.values, evs[i].value)
					if len(p.values) > maxPersistentValues {
						p.unprunable = true
						break
					}
				}
			}
			m[at] = p
		}
		cp.persistent[k] = m
	}
	return cp
}

// TestPruneStreamedPredictionsMatchReference runs each target's golden
// passes with the streamed predictor and with the reference log, and
// requires identical predictions field for field: transient, a
// persistent window inside the instant spacing, and windows long
// enough to overlap across instants; with the configured instants and
// with an unsorted, duplicated instant list.
func TestPruneStreamedPredictionsMatchReference(t *testing.T) {
	configs := map[string]func(t *testing.T) Config{
		"arrestor": func(t *testing.T) Config { return tinyConfig() },
		"dual": func(t *testing.T) Config {
			cfg := tinyConfig()
			cfg.Dual = true
			return cfg
		},
		"autobrake": autobrakeConfig,
		"hostile":   hostileConfig,
	}
	var boundaryReads, unprunable int
	for name, mk := range configs {
		for _, dur := range []sim.Millis{0, 50, 400, 2500} {
			base := mk(t)
			shuffled := []sim.Millis{base.Times[len(base.Times)-1]}
			shuffled = append(shuffled, base.Times...)
			shuffled = append(shuffled, base.Times[0]+1)
			for ti, times := range [][]sim.Millis{base.Times, shuffled} {
				cfg := mk(t)
				cfg.Times = times
				cfg.FaultDurationMs = dur
				for ci := range cfg.TestCases {
					_, got, _, err := goldenRun(cfg, ci, true)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					ref := refReadLog{}
					inst, err := cfg.NewInstance(cfg.TestCases[ci], ref.hook())
					if err != nil {
						t.Fatal(err)
					}
					inst.Kernel().SetBudget(cfg.Budget)
					if crashed, pv := runGuarded(inst, cfg.HorizonMs); crashed {
						t.Fatalf("%s: reference golden run crashed: %v", name, pv)
					}
					want := ref.distill(cfg.Times, cfg.FaultDurationMs)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s dur=%d times#%d case %d: streamed predictions differ from the reference\n got %+v\nwant %+v",
							name, dur, ti, ci, got, want)
					}
					for _, evs := range ref {
						for _, ev := range evs {
							for _, at := range cfg.Times {
								if dur > 0 && ev.tick == at+dur {
									boundaryReads++
								}
							}
						}
					}
					for _, m := range want.persistent {
						for _, p := range m {
							if p.unprunable {
								unprunable++
							}
						}
					}
				}
			}
		}
	}
	// The cases above must reach both edges of a persistent window: a
	// read exactly on At+FaultDurationMs and the distinct-value cap.
	if boundaryReads == 0 {
		t.Error("no read landed exactly on a window's closing instant")
	}
	if unprunable == 0 {
		t.Error("no persistent window exceeded the distinct-value cap")
	}
}

// goldenPassAllocs counts the allocations of one golden pass of the
// first test case at the given horizon, with and without prediction
// capture.
func goldenPassAllocs(t *testing.T, cfg Config, horizon sim.Millis, capture bool) float64 {
	cfg.HorizonMs = horizon
	return testing.AllocsPerRun(3, func() {
		if _, _, _, err := goldenRun(cfg, 0, capture); err != nil {
			t.Fatal(err)
		}
	})
}

// TestGoldenPassCaptureAllocsIndependentOfHorizon pins the streamed
// predictor's cost: capture allocates per port and per instant, never
// per read, so its extra allocations are the same for a run ten times
// longer. Every window closes before the shorter horizon, so both
// horizons see the same predictions.
func TestGoldenPassCaptureAllocsIndependentOfHorizon(t *testing.T) {
	for _, dur := range []sim.Millis{0, 100} {
		cfg := tinyConfig()
		cfg.Times = []sim.Millis{200, 400}
		cfg.FaultDurationMs = dur
		var extra [2]float64
		for i, horizon := range []sim.Millis{600, 6000} {
			extra[i] = goldenPassAllocs(t, cfg, horizon, true) - goldenPassAllocs(t, cfg, horizon, false)
		}
		if extra[0] != extra[1] {
			t.Errorf("dur=%d: capture adds %v allocations at 600 ms but %v at 6000 ms", dur, extra[0], extra[1])
		}
	}
}

// BenchmarkGoldenPass measures one captured golden pass (trace
// recording plus streamed predictions) of the tiny configuration.
func BenchmarkGoldenPass(b *testing.B) {
	cfg := tinyConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := goldenRun(cfg, 0, true); err != nil {
			b.Fatal(err)
		}
	}
}
