package campaign

import (
	"fmt"
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
//     same experiment; with a memo backend (Config.Memo) the second is
//     served from it, carrying the full outcome + deviation diffs, so
//     the synthesized record is bit-identical to the executed one.
//   - Converged: an executing transient run that, at a probe tick
//     after firing, has reached exactly the golden state (signals,
//     hidden state, and — under a step budget — the step accounting)
//     must follow the golden run for the rest of the horizon: its
//     diffs are final and it can neither crash nor hang later, so
//     simulation stops there. One that has reached exactly the state
//     a finished sibling run reached at that tick follows the
//     sibling, whose suffix is spliced in (see trajectories below).
//
// All four classifications preserve bit-identity with a full
// execution; the equivalence suite (prune_test.go) asserts it on
// every registry target, including crash/hang-heavy ones.

// Pruned-kind labels recorded on RunRecord.Pruned (and on journal
// records) for runs whose outcome was obtained without a full
// execution. The empty string marks a fully executed run.
const (
	// PrunedUnfired: the golden run's firing prediction proves the trap
	// cannot fire.
	PrunedUnfired = "unfired"
	// PrunedNoOp: the corrupted value equals the golden value at the
	// firing read, so the injection changes nothing.
	PrunedNoOp = "noop"
	// PrunedMemoized: the outcome was served from the in-process result
	// cache of an identical earlier experiment. Campaigns no longer
	// have that cache; the label survives in older journals, which
	// load and count it unchanged.
	PrunedMemoized = "memo"
	// PrunedMemoStore: the outcome was served from a memo backend
	// (Config.Memo) — an identical experiment executed earlier in this
	// campaign or by another, possibly in another process. Like every
	// pruned label it is excluded from record equality and the
	// record-set digest, so mixed hot/cold journals interoperate.
	PrunedMemoStore = "memo-store"
	// PrunedConverged: the run executed, but stopped early at a probe
	// tick where its state equalled the golden run's, or a finished
	// sibling run's, whose remaining comparison and ending (a crash or
	// hang included) were spliced in. Which runs splice depends on
	// worker interleaving; the record does not.
	PrunedConverged = "converged"
)

// MemoKey identifies one transient experiment up to determinism, the
// key of a memo backend (Config.Memo). The
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

// MemoBackend is a memo store, typically persistent, consulted before
// a memoizable experiment executes. Implementations must be safe for
// concurrent use, must hand GetMemo's caller a Diffs map of its own,
// and must not retain or mutate the Diffs map after PutMemo returns
// (clone or serialize it). A backend that errors internally should
// report a miss — the run then simply executes, so a wiped or corrupt
// store degrades to full execution.
type MemoBackend interface {
	GetMemo(MemoKey) (MemoEntry, bool)
	PutMemo(MemoKey, MemoEntry)
}

// PruneSignalCounts breaks the pruning counters down for one injection
// location ("signal@module"). Store counts memo hits served from the
// backend (Config.Memo); Memoized counts the hits of the in-process
// cache older journals carry.
type PruneSignalCounts struct {
	NoOp, Unfired, Memoized, Store, Converged, Executed int
}

// add counts one run settled as pruned (a Pruned* label, "" for an
// executed run).
func (c *PruneSignalCounts) add(pruned string) {
	switch pruned {
	case PrunedNoOp:
		c.NoOp++
	case PrunedUnfired:
		c.Unfired++
	case PrunedMemoized:
		c.Memoized++
	case PrunedMemoStore:
		c.Store++
	case PrunedConverged:
		c.Converged++
	default:
		c.Executed++
	}
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

// pruningEnabled decides whether this campaign prunes: whenever no
// Instrument hook is configured. A pruned run never builds a target
// instance, so the hook would be skipped and its attachment missing
// from the record. Unlike Golden.fastForward it needs no checkpointable
// target: the golden-run firing predictions are sound for any target,
// and the checkpoint-based convergence probes simply stay off without
// fast-forward.
func (c Config) pruningEnabled() bool {
	return c.Instrument == nil && !c.executeAll
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

// digestKey scopes a state digest to one (test case, instant).
type digestKey struct {
	caseIdx int
	at      sim.Millis
}

// pruner classifies injection jobs before execution and serves /
// collects memoized results. Shared across the campaign's workers.
type pruner struct {
	cfg   Config
	preds []casePredictions // per test case

	mu      sync.Mutex
	digests map[digestKey]string
}

func newPruner(cfg Config, preds []casePredictions) *pruner {
	return &pruner{cfg: cfg, preds: preds, digests: make(map[digestKey]string)}
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
// memoizable jobs of a campaign with a memo backend, it returns the
// key under which the executed result should be stored (see store).
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
	if p.cfg.Memo == nil {
		return runOutcome{}, false, nil, nil
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
	if e, ok := p.cfg.Memo.GetMemo(*mk); ok {
		return p.serveMemo(sys, base, e, PrunedMemoStore)
	}
	return runOutcome{}, false, mk, nil
}

// serveMemo synthesizes the outcome of a memoized experiment. The
// returned outcome aliases e.Diffs, which the backend handed over.
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

// store offers one executed result to the memo backend under the key
// classify handed out. The fired sanity check guards the prediction:
// if the trap did not fire exactly as predicted the result is not
// stored (and the prediction machinery has a bug the equivalence
// suite will catch).
func (p *pruner) store(mk *MemoKey, out runOutcome) {
	if mk == nil || !out.fired || out.firedAt != mk.FireTick || out.outcome == OutcomeQuarantined {
		return
	}
	p.cfg.Memo.PutMemo(*mk, MemoEntry{
		Outcome: out.outcome,
		Detail:  out.detail,
		FiredAt: out.firedAt,
		Diffs:   out.diffs,
	})
}

// Sibling trajectories. Determinism makes a run's future a function
// of its state, so a fired transient run that reaches, at a probe
// tick, the exact state an earlier run reached there follows that run
// for the rest of the horizon. Golden keeps a bounded table of the
// states executing runs reached at their early probe ticks, each
// finished with what followed it once its run ends; a later run
// matching a finished entry splices that suffix instead of simulating
// it. Every Run of the recording in the table's scope shares it: each
// fleet unit a worker runs, a resumed Run, each adaptive round. A
// matching entry still pending is never waited for: the run simply
// executes, so which runs splice depends on worker interleaving and
// on the Runs before, but the records never do.

// defaultTrajectoryBound bounds the sibling table (entries, recycled
// oldest first). A sibling may have run anywhere in the campaign: the
// adaptive order scatters the runs of one (signal, instant), and
// fleet units split them across Runs. 8,192 entries, about 5 MB on
// the paper target, let a fleet execute about the runs a single node
// does.
const defaultTrajectoryBound = 8192

// siblingScope is the config a suffix depends on beyond the
// recording: the tolerance bands, the step budget (hang outcomes, and
// whether equal states must have spent equal steps) and the
// target construction fields Golden.check does not compare. Runs
// share a table only within one scope.
func siblingScope(cfg Config) Config {
	return Config{Arrestor: cfg.Arrestor, Dual: cfg.Dual, Custom: cfg.Custom,
		Tolerances: cfg.Tolerances, Budget: sim.Budget{Steps: cfg.Budget.Steps}}
}

// trajectoryKey narrows a state lookup to one test case, probe tick
// and bus row; the full states are then compared exactly.
type trajectoryKey struct {
	caseIdx int
	tick    sim.Millis
	row     uint64 // FNV-1a hash of the bus value row
}

// trajectory is one run's state at a probe tick and, once that run
// ends, everything that followed: the comparison from the probe tick
// on, and how the run ended — "" when it completed, else a crash (with
// its panic text) or a hang.
type trajectory struct {
	key   trajectoryKey
	state *sim.Snapshot
	next  *trajectory // the next entry under the same key

	done    bool // guarded by trajectories.mu, like the fields below
	suffix  trace.Suffix
	outcome Outcome
	detail  string
}

// trajectories is a sibling table, shared by the workers of every Run
// in its scope.
type trajectories struct {
	scope Config // see siblingScope

	mu    sync.Mutex
	byKey map[trajectoryKey]*trajectory // chained through trajectory.next
	ring  []*trajectory                 // insertion order, oldest at next once full
	next  int
	bound int
}

func newTrajectories(scope Config, bound int) *trajectories {
	return &trajectories{scope: scope, byKey: make(map[trajectoryKey]*trajectory), bound: bound}
}

// compareUsed reports whether equal states must also have spent
// equal steps. The step accounting matters only under a step budget:
// without one it cannot influence any outcome, and hostile targets
// charge data-dependent step counts that would otherwise forgo valid
// convergence prunes. Wall budgets are a non-deterministic backstop,
// excluded from outcomes by design (see sim.Snapshot).
func (ts *trajectories) compareUsed() bool { return ts.scope.Budget.Steps > 0 }

// liveState is a running instance as the sibling table sees it: its
// state is compared in place and captured only to be registered (see
// target.Checkpointable).
type liveState interface {
	Matches(snap *sim.Snapshot) bool
	CheckpointOver(base *sim.Snapshot) (*sim.Snapshot, error)
}

// matches reports whether a live state that has spent used steps
// equals snap under the table's step-accounting rule.
func (ts *trajectories) matches(live liveState, used int64, snap *sim.Snapshot) bool {
	return live.Matches(snap) && (!ts.compareUsed() || used == snap.Used)
}

// rowHash is the FNV-1a hash of a bus value row.
func rowHash(row []uint16) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range row {
		h = (h ^ uint64(v)) * 1099511628211
	}
	return h
}

// visit looks a run's live state at a probe tick up, comparing it in
// place. It returns the finished entry the state equals, if any;
// otherwise, unless an equal entry is still pending, it captures the
// state and registers it as a new pending entry, returned as mine for
// the run to finish when it ends. The capture shares golden's hidden
// states where the live ones still equal them: a few ticks after
// firing most have not diverged, and the table holds thousands of
// states. A failed capture registers nothing.
func (ts *trajectories) visit(key trajectoryKey, live liveState, used int64, golden *sim.Snapshot) (found, mine *trajectory) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	for tr := ts.byKey[key]; tr != nil; tr = tr.next {
		if ts.matches(live, used, tr.state) {
			if tr.done {
				return tr, nil
			}
			return nil, nil
		}
	}
	state, err := live.CheckpointOver(golden)
	if err != nil {
		return nil, nil
	}
	if len(ts.ring) < ts.bound {
		ts.ring = append(ts.ring, nil)
	} else {
		ts.evict(ts.ring[ts.next])
	}
	mine = &trajectory{key: key, state: state, next: ts.byKey[key]}
	ts.byKey[key] = mine
	ts.ring[ts.next] = mine
	ts.next = (ts.next + 1) % ts.bound
	return nil, mine
}

// evict unlinks the oldest entry. Chains run newest first and
// entries leave oldest first, so it ends its chain.
func (ts *trajectories) evict(old *trajectory) {
	link := ts.byKey[old.key]
	if link == old {
		delete(ts.byKey, old.key)
		return
	}
	for link.next != old {
		link = link.next
	}
	link.next = nil
}

// finish publishes what followed a pending entry's state. An evicted
// entry is finished all the same; nothing reads it any more.
func (ts *trajectories) finish(tr *trajectory, suffix trace.Suffix, outcome Outcome, detail string) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tr.suffix, tr.outcome, tr.detail, tr.done = suffix, outcome, detail, true
}
