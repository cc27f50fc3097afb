package campaign

import (
	"container/list"
	"fmt"
	"reflect"
	"slices"
	"sync"

	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/sim"
	"propane/internal/trace"
)

// Equivalence pruning and run-result memoization. The simulator is
// fully deterministic, so many injection runs are decided before they
// execute:
//
//   - Unfired: the golden run's instrumented reads, streamed into one
//     prediction per (module, input signal, instant) as the run reads,
//     tell whether a trap armed there can fire at all. Until a trap
//     fires the injected run is bit-identical to the golden run, so
//     golden reads predict injected reads exactly; a port the golden
//     run never reads at or after the instant yields an unfired run.
//   - No-op: the same prediction carries the value the trap would
//     mutate. When Mutate(v) == v the trap writes back the value that
//     was already there — the run completes as ok with no deviations,
//     without simulating.
//   - Memoized: two transient jobs whose restored snapshot state
//     (digested), firing read and corrupted value coincide are the
//     same experiment; the second is served from a bounded result
//     cache carrying the full outcome + deviation diffs, so the
//     synthesized record is bit-identical to the executed one.
//   - Converged: an executing transient run that, at a later
//     checkpoint instant, has returned to exactly the golden state
//     (signals, hidden state, and — under a step budget — the step
//     accounting) must follow the golden run for the rest of the
//     horizon: its diffs are final and it can neither crash nor hang
//     later, so simulation stops there.
//
// All four classifications preserve bit-identity with a full
// execution; the equivalence suite (prune_test.go) asserts it on
// every registry target, including crash/hang-heavy ones.

// PruneMode selects whether provably redundant injection runs are
// short-circuited (equivalence pruning) and repeated experiments are
// served from the result cache (memoization).
type PruneMode int

const (
	// PruneAuto (the default) prunes when no Instrument hook is
	// configured. A pruned run never builds a target instance, so
	// Instrument would not be invoked and its attachment would be
	// missing from the record; auto mode conservatively executes every
	// run for instrumented campaigns.
	PruneAuto PruneMode = iota
	// PruneOff executes every injection run.
	PruneOff
	// PruneForce prunes even with an Instrument hook configured — for
	// instrumentation that only wraps per-run bookkeeping (e.g.
	// internal/runner's timing wrapper) and tolerates a nil attachment
	// on synthesized records.
	PruneForce
)

// Pruned-kind labels recorded on RunRecord.Pruned (and on journal
// records) for runs whose outcome was obtained without a full
// execution. The empty string marks a fully executed run.
const (
	// PrunedUnfired: the golden read log proves the trap cannot fire.
	PrunedUnfired = "unfired"
	// PrunedNoOp: the corrupted value equals the golden value at the
	// firing read, so the injection changes nothing.
	PrunedNoOp = "noop"
	// PrunedMemoized: the outcome was served from the result cache of
	// an identical earlier experiment.
	PrunedMemoized = "memo"
	// PrunedMemoStore: the outcome was served from a persistent memo
	// backend (Config.Memo) — an identical experiment executed by an
	// earlier campaign, possibly in another process. Distinct from
	// PrunedMemoized so fleets can count cross-campaign reuse; like
	// every pruned label it is excluded from record equality and the
	// record-set digest, so mixed hot/cold journals interoperate.
	PrunedMemoStore = "memo-store"
	// PrunedConverged: the run executed, but stopped early at a
	// checkpoint instant where its state had returned to the golden
	// run's.
	PrunedConverged = "converged"
)

// MemoKey identifies one transient experiment up to determinism — the
// exported form of the memo cache key, for persistent backends. The
// digest alone does not pin the target's construction parameters or
// dynamics, so a backend must additionally scope keys by the campaign
// config digest (see runner.Options.Memo); within one scope the key
// is sound across processes and campaigns.
type MemoKey struct {
	Case     int        `json:"case"`
	Digest   string     `json:"digest"`
	Module   string     `json:"module"`
	Signal   string     `json:"signal"`
	FireTick sim.Millis `json:"fire_tick"`
	Value    uint16     `json:"value"`
	Budget   int64      `json:"budget,omitempty"`
}

// MemoEntry carries everything needed to synthesize a record
// bit-identical to the executed one.
type MemoEntry struct {
	Outcome Outcome               `json:"outcome"`
	Detail  string                `json:"detail,omitempty"`
	FiredAt sim.Millis            `json:"fired_at"`
	Diffs   map[string]trace.Diff `json:"diffs,omitempty"`
}

// MemoBackend is a second-level, typically persistent memo store
// consulted when the in-process result cache misses. Implementations
// must be safe for concurrent use and must not retain or mutate the
// Diffs map after PutMemo returns (clone or serialize it). A backend
// that errors internally should report a miss — the run then simply
// executes, so a wiped or corrupt store degrades to full execution.
type MemoBackend interface {
	GetMemo(MemoKey) (MemoEntry, bool)
	PutMemo(MemoKey, MemoEntry)
}

// PruneSignalCounts breaks the pruning counters down for one injection
// location ("signal@module"). Store counts memo hits served from the
// persistent backend (Config.Memo) rather than the in-process cache.
type PruneSignalCounts struct {
	NoOp, Unfired, Memoized, Store, Converged, Executed int
}

// PruneStats counts, over all settled non-quarantined injection jobs,
// how each outcome was obtained. Pruned runs keep their synthesized
// outcomes in every estimate denominator — the counters document how
// the estimates were computed, they do not change them.
type PruneStats struct {
	NoOp, Unfired, Memoized, Store, Converged, Executed int
	// PerSignal keys the same counters by injection location,
	// "signal@module".
	PerSignal map[string]PruneSignalCounts
}

// Total returns the number of runs settled without a full execution.
func (ps PruneStats) Total() int {
	return ps.NoOp + ps.Unfired + ps.Memoized + ps.Store + ps.Converged
}

// pruningEnabled decides whether this campaign prunes. Unlike
// checkpointsEnabled it needs no target capability probe: the read-log
// classifications are sound for any target, and the checkpoint-based
// convergence probe simply stays off when no checkpoint cache exists.
func (c Config) pruningEnabled() bool {
	switch c.Prune {
	case PruneOff:
		return false
	case PruneAuto:
		if c.Instrument != nil {
			return false
		}
	}
	return true
}

// portKey identifies one instrumented input port.
type portKey struct {
	module, signal string
}

// readLog streams one golden run's instrumented reads into per-instant
// firing predictions, storing no read. Only the case's golden run
// writes it, from one goroutine, so it needs no locking.
type readLog struct {
	times    []sim.Millis // injection instants, sorted and deduplicated
	duration sim.Millis   // persistent window length; <= 0 is transient
	ports    [][]*portLog // by sim.Signal.Index, then by reading module
}

// portLog holds one port's predictions, one per instant. Reads arrive
// in tick order, so instants [0, hi) have been reached, and of those
// the persistent windows [lo, hi) are still open.
type portLog struct {
	sig        *sim.Signal
	key        portKey
	lo, hi     int
	transient  []transientPred
	persistent []persistentPred
}

func newReadLog(times []sim.Millis, duration sim.Millis) *readLog {
	ts := slices.Clone(times)
	slices.Sort(ts)
	return &readLog{times: slices.Compact(ts), duration: duration}
}

// hook returns the recording sim.ReadHook. It observes only — the
// golden run with this hook installed is bit-identical to one without.
// A read finds its port by the signal's bus index, never by hashing a
// name; after a port's first read, recording allocates nothing. The
// log must see every read, so it never detaches.
func (l *readLog) hook() sim.ReadHook {
	return func(module, signal string, sig *sim.Signal, now sim.Millis) bool {
		i := sig.Index()
		if i >= len(l.ports) {
			l.ports = append(l.ports, make([][]*portLog, i+1-len(l.ports))...)
		}
		for _, p := range l.ports[i] {
			if p.sig == sig && p.key.module == module {
				l.record(p, now, sig.Read())
				return false
			}
		}
		p := &portLog{sig: sig, key: portKey{module: module, signal: signal}}
		if l.duration > 0 {
			p.persistent = make([]persistentPred, len(l.times))
		} else {
			p.transient = make([]transientPred, len(l.times))
		}
		l.ports[i] = append(l.ports[i], p)
		l.record(p, now, sig.Read())
		return false
	}
}

// record applies one read of value v at tick now. It is the firing
// read of every transient trap armed at an instant it reaches first,
// and falls inside every persistent window [at, at+duration] open at
// now.
func (l *readLog) record(p *portLog, now sim.Millis, v uint16) {
	for ; p.hi < len(l.times) && l.times[p.hi] <= now; p.hi++ {
		if p.transient != nil {
			p.transient[p.hi] = transientPred{fires: true, fireTick: now, value: v}
		}
	}
	if p.persistent == nil {
		return
	}
	for p.lo < p.hi && l.times[p.lo]+l.duration < now {
		p.lo++
	}
	for w := p.lo; w < p.hi; w++ {
		p.persistent[w].add(now, v)
	}
}

// predictions returns the per-instant predictions of every port read.
func (l *readLog) predictions() casePredictions {
	cp := casePredictions{}
	if l.duration > 0 {
		cp.persistent = make(map[portKey]map[sim.Millis]persistentPred)
	} else {
		cp.transient = make(map[portKey]map[sim.Millis]transientPred)
	}
	for _, ps := range l.ports {
		for _, p := range ps {
			if l.duration > 0 {
				cp.persistent[p.key] = byInstant(l.times, p.persistent)
			} else {
				cp.transient[p.key] = byInstant(l.times, p.transient)
			}
		}
	}
	return cp
}

func byInstant[P any](times []sim.Millis, preds []P) map[sim.Millis]P {
	m := make(map[sim.Millis]P, len(times))
	for i, at := range times {
		m[at] = preds[i]
	}
	return m
}

// transientPred predicts a one-shot trap armed at one (port, instant):
// whether it fires, the tick of the firing read, and the value the
// read would deliver uninjected. Sound because the injected run is
// bit-identical to the golden run until the trap fires.
type transientPred struct {
	fires    bool
	fireTick sim.Millis
	value    uint16
}

// persistentPred predicts a persistent trap's window [At, At+dur]:
// whether any read falls in it, the first one's tick, and the set of
// distinct values read. The set only supports the no-op check — if
// every value maps to itself the injected run never diverges, by
// induction over the (then still golden) reads.
type persistentPred struct {
	fires      bool
	fireTick   sim.Millis
	values     []uint16
	unprunable bool // too many distinct values to enumerate
}

// maxPersistentValues caps the distinct-value set of a persistent
// prediction; windows richer than this are executed unconditionally.
const maxPersistentValues = 64

// add folds one read inside the window into the prediction: the
// first read is the firing read, and values are kept distinct in
// first-seen order until there are too many to enumerate.
func (p *persistentPred) add(now sim.Millis, v uint16) {
	if p.unprunable {
		return
	}
	if !p.fires {
		p.fires, p.fireTick = true, now
	}
	if slices.Contains(p.values, v) {
		return
	}
	p.values = append(p.values, v)
	p.unprunable = len(p.values) > maxPersistentValues
}

// casePredictions is one test case's streamed read log: one
// prediction per (instrumented port, injection instant). Ports the
// golden run never reads have no entry; the zero-valued prediction a
// lookup then returns means "cannot fire", which is exactly right.
type casePredictions struct {
	transient  map[portKey]map[sim.Millis]transientPred
	persistent map[portKey]map[sim.Millis]persistentPred
}

// The MemoKey components: the test case (construction parameters are
// not part of the state digest), the digested pre-injection state,
// the port, the tick of the firing read, the corrupted value the trap
// writes there, and the step budget (it decides hang classification).
// The firing read's position inside its tick needs no key component:
// it is always the first matching read of tick FireTick, whatever the
// arm time was.

// defaultMemoBound bounds the result cache (entries, LRU-recycled).
const defaultMemoBound = 4096

// memoCache is a bounded, concurrency-safe LRU of run results. Diffs
// are cloned on both store and serve so a cached map is never aliased
// by records in flight.
type memoCache struct {
	mu    sync.Mutex
	bound int
	items map[MemoKey]*list.Element
	order *list.List // front = most recently used
}

type memoItem struct {
	key   MemoKey
	entry MemoEntry
}

func newMemoCache(bound int) *memoCache {
	if bound <= 0 {
		bound = defaultMemoBound
	}
	return &memoCache{bound: bound, items: make(map[MemoKey]*list.Element), order: list.New()}
}

func (mc *memoCache) get(k MemoKey) (MemoEntry, bool) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	el, ok := mc.items[k]
	if !ok {
		return MemoEntry{}, false
	}
	mc.order.MoveToFront(el)
	e := el.Value.(*memoItem).entry
	e.Diffs = cloneDiffs(e.Diffs)
	return e, true
}

func (mc *memoCache) put(k MemoKey, e MemoEntry) {
	e.Diffs = cloneDiffs(e.Diffs)
	mc.mu.Lock()
	defer mc.mu.Unlock()
	if el, ok := mc.items[k]; ok {
		mc.order.MoveToFront(el)
		el.Value.(*memoItem).entry = e
		return
	}
	mc.items[k] = mc.order.PushFront(&memoItem{key: k, entry: e})
	for mc.order.Len() > mc.bound {
		back := mc.order.Back()
		mc.order.Remove(back)
		delete(mc.items, back.Value.(*memoItem).key)
	}
}

func (mc *memoCache) len() int {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	return mc.order.Len()
}

func cloneDiffs(m map[string]trace.Diff) map[string]trace.Diff {
	if m == nil {
		return nil
	}
	out := make(map[string]trace.Diff, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// digestKey scopes a state digest to one (test case, instant).
type digestKey struct {
	caseIdx int
	at      sim.Millis
}

// pruner classifies injection jobs before execution and serves /
// collects memoized results. Shared across the campaign's workers.
type pruner struct {
	cfg     Config
	preds   []casePredictions // per test case
	memo    *memoCache
	backend MemoBackend // optional L2, consulted on L1 misses

	mu      sync.Mutex
	digests map[digestKey]string
}

func newPruner(cfg Config, preds []casePredictions) *pruner {
	return &pruner{
		cfg:     cfg,
		preds:   preds,
		memo:    newMemoCache(cfg.memoBound),
		backend: cfg.Memo,
		digests: make(map[digestKey]string),
	}
}

// digestFor returns the cached pre-injection state digest for one
// (test case, instant). With a checkpoint snapshot available that is
// Snapshot.Digest; without one, determinism still pins the state of a
// (case, instant) within this campaign, so a positional fallback key
// is equally sound — the digest is a guard, not the sole key.
func (p *pruner) digestFor(caseIdx int, at sim.Millis, snap *sim.Snapshot) string {
	key := digestKey{caseIdx: caseIdx, at: at}
	p.mu.Lock()
	d, ok := p.digests[key]
	p.mu.Unlock()
	if ok {
		return d
	}
	if snap != nil {
		d = snap.Digest()
	} else {
		d = fmt.Sprintf("t=%d", at)
	}
	p.mu.Lock()
	p.digests[key] = d
	p.mu.Unlock()
	return d
}

// classify decides one job before execution. It returns the
// synthesized outcome when the job is pruned; otherwise, for
// memoizable jobs, it returns the key under which the executed result
// should be stored (see store).
func (p *pruner) classify(sys *model.System, caseIdx int, inj inject.Injection, snap *sim.Snapshot) (runOutcome, bool, *MemoKey, error) {
	base := runOutcome{injection: inj, caseIdx: caseIdx, failureAt: -1}
	pk := portKey{module: inj.Module, signal: inj.Signal}
	if p.cfg.FaultDurationMs > 0 {
		pred := p.preds[caseIdx].persistent[pk][inj.At]
		if !pred.fires {
			base.outcome = OutcomeOK
			base.pruned = PrunedUnfired
			return base, true, nil, nil
		}
		if pred.unprunable {
			return runOutcome{}, false, nil, nil
		}
		for _, v := range pred.values {
			if inj.Model.Mutate(v) != v {
				// Persistent runs diverge from the golden run after the
				// first effective write, invalidating every later
				// prediction — they are never memoized either.
				return runOutcome{}, false, nil, nil
			}
		}
		base.fired = true
		base.firedAt = pred.fireTick
		base.outcome = OutcomeOK
		base.pruned = PrunedNoOp
		return base, true, nil, nil
	}
	pred := p.preds[caseIdx].transient[pk][inj.At]
	if !pred.fires {
		// firedAt stays 0, matching an executed run's Trap.Fired() zero
		// return; diffs stay nil — until a trap fires the run is the
		// golden run, and an unfired run never deviates.
		base.outcome = OutcomeOK
		base.pruned = PrunedUnfired
		return base, true, nil, nil
	}
	corrupted := inj.Model.Mutate(pred.value)
	if corrupted == pred.value {
		base.fired = true
		base.firedAt = pred.fireTick
		base.outcome = OutcomeOK
		base.pruned = PrunedNoOp
		return base, true, nil, nil
	}
	mk := &MemoKey{
		Case:     caseIdx,
		Digest:   p.digestFor(caseIdx, inj.At, snap),
		Module:   inj.Module,
		Signal:   inj.Signal,
		FireTick: pred.fireTick,
		Value:    corrupted,
		Budget:   p.cfg.Budget.Steps,
	}
	if e, ok := p.memo.get(*mk); ok {
		return p.serveMemo(sys, base, e, PrunedMemoized)
	}
	if p.backend != nil {
		if e, ok := p.backend.GetMemo(*mk); ok {
			// Promote to the in-process cache so repeats within this
			// campaign are served locally (and counted as "memo").
			p.memo.put(*mk, e)
			e.Diffs = cloneDiffs(e.Diffs)
			return p.serveMemo(sys, base, e, PrunedMemoStore)
		}
	}
	return runOutcome{}, false, mk, nil
}

// serveMemo synthesizes the outcome of a memoized experiment. e.Diffs
// must already be a private clone — the returned outcome aliases it.
func (p *pruner) serveMemo(sys *model.System, base runOutcome, e MemoEntry, label string) (runOutcome, bool, *MemoKey, error) {
	out := base
	out.fired = true
	out.firedAt = e.FiredAt
	out.diffs = e.Diffs
	out.outcome = e.Outcome
	out.detail = e.Detail
	out.pruned = label
	if e.Outcome == OutcomeCrash || e.Outcome == OutcomeHang {
		// Executed crash/hang records skip the output epilogue
		// (outputFirst nil, no system failure, failureAt -1); the
		// synthesized record must match them field for field.
		return out, true, nil, nil
	}
	if err := finishOutcome(sys, &out); err != nil {
		return runOutcome{}, false, nil, err
	}
	return out, true, nil, nil
}

// store caches one executed result under the key classify handed out.
// The fired sanity check guards the prediction: if the trap did not
// fire exactly as predicted the result is not cached (and the
// prediction machinery has a bug the equivalence suite will catch).
func (p *pruner) store(mk *MemoKey, out runOutcome) {
	if mk == nil || !out.fired || out.firedAt != mk.FireTick || out.outcome == OutcomeQuarantined {
		return
	}
	e := MemoEntry{
		Outcome: out.outcome,
		Detail:  out.detail,
		FiredAt: out.firedAt,
		Diffs:   out.diffs,
	}
	p.memo.put(*mk, e) // clones diffs
	if p.backend != nil {
		e.Diffs = cloneDiffs(e.Diffs)
		p.backend.PutMemo(*mk, e)
	}
}

// snapshotsEqual reports whether two snapshots capture identical
// dynamic state. The step accounting is compared only under a step
// budget: without one it cannot influence any outcome, and hostile
// targets charge data-dependent step counts that would otherwise
// forgo valid convergence prunes. Wall budgets are a non-deterministic
// backstop, excluded from outcomes by design (see sim.Snapshot).
func snapshotsEqual(a, b *sim.Snapshot, compareUsed bool) bool {
	if a.Now != b.Now || len(a.Signals) != len(b.Signals) || len(a.Hidden) != len(b.Hidden) {
		return false
	}
	if compareUsed && a.Used != b.Used {
		return false
	}
	for i := range a.Signals {
		if a.Signals[i] != b.Signals[i] {
			return false
		}
	}
	for i := range a.Hidden {
		if !reflect.DeepEqual(a.Hidden[i], b.Hidden[i]) {
			return false
		}
	}
	return true
}
