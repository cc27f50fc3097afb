package campaign

import (
	"fmt"
	"sort"
	"sync"

	"propane/internal/sim"
	"propane/internal/target"
)

// Checkpoint fast-forward. A campaign's injection runs are dominated
// by redundant simulation: all 16 bit positions (and every error
// model) injected at the same (test case, instant) re-execute an
// identical pre-injection prefix from t=0, and that prefix is by
// construction bit-identical to the uninjected golden run — a trap
// has no effect before its arm time. When the target implements
// target.Checkpointable, the campaign therefore records one snapshot
// per (test case, injection instant) from a single extra uninjected
// pass per case, and every injection run restores the snapshot for
// its instant and simulates only [At, horizon). The stream comparator
// is seeked to the checkpoint tick, so results — diffs, outcomes,
// latencies, hang trip points — are bit-identical to a full replay.

// defaultCheckpointCases bounds the checkpoint cache: snapshot sets
// for at most this many test cases are held at once, recycled
// least-recently-used. Snapshots are small (one uint16 per signal
// plus per-module hidden state), so the bound exists to keep memory
// independent of workload-grid size, not because entries are big.
const defaultCheckpointCases = 32

// caseCheckpoints is one test case's lazily built snapshot set.
type caseCheckpoints struct {
	once  sync.Once
	snaps map[sim.Millis]*sim.Snapshot
	err   error
}

// checkpointCache hands out per-(case, instant) snapshots, building
// each case's set on first request with one uninjected pass that
// pauses at every injection instant. Entries are shared read-only
// across workers: restoring copies values out of a snapshot, never
// into it.
type checkpointCache struct {
	cfg   Config
	times []sim.Millis // distinct injection instants, ascending

	mu      sync.Mutex
	entries map[int]*caseCheckpoints
	lru     []int // caseIdx order, most recently used last
	bound   int
}

func newCheckpointCache(cfg Config) *checkpointCache {
	seen := make(map[sim.Millis]bool, len(cfg.Times))
	times := make([]sim.Millis, 0, len(cfg.Times))
	for _, t := range cfg.Times {
		if !seen[t] {
			seen[t] = true
			times = append(times, t)
		}
	}
	sort.Slice(times, func(i, j int) bool { return times[i] < times[j] })
	return &checkpointCache{
		cfg:     cfg,
		times:   times,
		entries: make(map[int]*caseCheckpoints),
		bound:   defaultCheckpointCases,
	}
}

// instants returns the distinct checkpointed injection instants in
// ascending order (read-only — shared slice). The convergence probe
// iterates it to find golden snapshots after a trap's firing point.
func (cc *checkpointCache) instants() []sim.Millis { return cc.times }

// get returns the snapshot for one (test case, injection instant),
// building the case's snapshot set on first request. A nil snapshot
// with nil error means the instant has no checkpoint (never the case
// for instants drawn from Config.Times); the caller then replays from
// t=0.
func (cc *checkpointCache) get(caseIdx int, at sim.Millis) (*sim.Snapshot, error) {
	cc.mu.Lock()
	e := cc.entries[caseIdx]
	if e == nil {
		e = &caseCheckpoints{}
		cc.entries[caseIdx] = e
		cc.lru = append(cc.lru, caseIdx)
		for len(cc.lru) > cc.bound {
			delete(cc.entries, cc.lru[0])
			cc.lru = cc.lru[1:]
		}
	} else {
		for i, c := range cc.lru {
			if c == caseIdx {
				cc.lru = append(append(cc.lru[:i:i], cc.lru[i+1:]...), caseIdx)
				break
			}
		}
	}
	cc.mu.Unlock()

	// Workers asking for an evicted or sibling case build outside the
	// lock; the per-entry once makes exactly one of them do the pass.
	e.once.Do(func() { e.snaps, e.err = cc.build(caseIdx) })
	if e.err != nil {
		return nil, e.err
	}
	return e.snaps[at], nil
}

// build records one test case's snapshot set: a fresh uninjected
// instance runs to each instant in ascending order, capturing at the
// tick boundary — the state just before tick `at` executes, which is
// exactly where a trap armed for `at` can first fire.
func (cc *checkpointCache) build(caseIdx int) (map[sim.Millis]*sim.Snapshot, error) {
	inst, err := cc.cfg.NewInstance(cc.cfg.TestCases[caseIdx], nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint pass case %d: %w", caseIdx, err)
	}
	ck, ok := inst.(target.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("campaign: checkpoint pass case %d: target is not checkpointable", caseIdx)
	}
	inst.Kernel().SetBudget(cc.cfg.Budget)
	snaps := make(map[sim.Millis]*sim.Snapshot, len(cc.times))
	for _, at := range cc.times {
		// The pass is uninjected, so like a golden run it must neither
		// crash nor exhaust its budget; either means a broken target.
		if crashed, pv := runGuarded(inst, at); crashed {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d crashed before t=%d: %v", caseIdx, at, pv)
		}
		if inst.Kernel().Exhausted() {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d exceeded the run budget (%d steps used) before t=%d",
				caseIdx, inst.Kernel().BudgetUsed(), at)
		}
		snap, err := ck.Checkpoint()
		if err != nil {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d at t=%d: %w", caseIdx, at, err)
		}
		snaps[at] = snap
	}
	return snaps, nil
}

// checkpointsEnabled decides whether this campaign fast-forwards:
// whenever no Instrument hook is configured and the target supports
// it. Instrument attachments (runtime monitors, recovery mechanisms)
// observe the run from tick 0, so skipping the prefix could change
// what they see. Unsupported topologies are detected by probing one
// instance, so the fallback to full replay is transparent to callers.
func (c Config) checkpointsEnabled() bool {
	if c.Instrument != nil || c.replayAll {
		return false
	}
	inst, err := c.NewInstance(c.TestCases[0], nil)
	if err != nil {
		return false // the campaign proper will surface the error
	}
	_, ok := inst.(target.Checkpointable)
	return ok
}
