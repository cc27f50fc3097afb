package campaign

import (
	"cmp"
	"fmt"
	"slices"
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
// target.Checkpointable, Golden therefore holds one snapshot per
// (test case, checkpoint tick), taken by a single extra uninjected
// pass per case, and every injection run restores the snapshot for
// its instant and simulates only [At, horizon). The stream comparator
// is seeked to the checkpoint tick, so results — diffs, outcomes,
// latencies, hang trip points — are bit-identical to a full replay.
//
// The checkpoint ticks are the injection instants and the probe ticks
// a few milliseconds after each (probeOffsets), where an executing
// run is compared against the golden state (see executeToHorizon).

// probeOffsets are the ticks after its injection instant at which a
// fired transient run is probed before the later instants: runs that
// reconverge, with the golden run or with a sibling run, almost always
// do so within a few ticks of firing.
var probeOffsets = [...]sim.Millis{8, 16, 32}

// earlyProbe reports whether a tick d after a run's injection instant
// is one of its probeOffsets.
func earlyProbe(d sim.Millis) bool {
	return slices.Contains(probeOffsets[:], d)
}

// checkpointTick is one tick Golden holds snapshots at.
type checkpointTick struct {
	at      sim.Millis
	instant bool // an injection instant, not only a probe tick
}

// checkpointTicks returns the distinct injection instants and the
// early probe ticks before the horizon, ascending.
func checkpointTicks(times []sim.Millis, horizon sim.Millis) []checkpointTick {
	var ticks []checkpointTick
	add := func(at sim.Millis, instant bool) {
		i, found := slices.BinarySearchFunc(ticks, at, byTick)
		switch {
		case found:
			ticks[i].instant = ticks[i].instant || instant
		case at < horizon:
			ticks = slices.Insert(ticks, i, checkpointTick{at: at, instant: instant})
		}
	}
	for _, at := range times {
		add(at, true)
		for _, d := range probeOffsets {
			add(at+d, false)
		}
	}
	return ticks
}

func byTick(t checkpointTick, at sim.Millis) int { return cmp.Compare(t.at, at) }

// tickIndex returns the position of checkpoint tick at in g.ticks.
func (g *Golden) tickIndex(at sim.Millis) (int, bool) {
	return slices.BinarySearchFunc(g.ticks, at, byTick)
}

// caseCheckpoints is one test case's snapshot set, aligned with
// Golden.ticks and built on first use.
type caseCheckpoints struct {
	once  sync.Once
	snaps []*sim.Snapshot
	err   error
}

// fastForward decides whether cfg's injection runs restore checkpoints:
// whenever no Instrument hook is configured and the golden runs'
// instances were checkpointable. Instrument attachments (runtime
// monitors, recovery mechanisms) observe the run from tick 0, so
// skipping the prefix could change what they see.
func (g *Golden) fastForward(cfg Config) bool {
	return g.checkpointable && cfg.Instrument == nil && !cfg.replayAll
}

// checkpoints returns one test case's snapshots, aligned with g.ticks,
// building them on first use: once per case per Golden, whichever Run
// and worker asks first. They are shared read-only across runs and
// workers: restoring copies values out of a snapshot, never into it.
func (g *Golden) checkpoints(caseIdx int) ([]*sim.Snapshot, error) {
	cc := &g.ckpts[caseIdx]
	cc.once.Do(func() { cc.snaps, cc.err = g.buildCheckpoints(caseIdx) })
	return cc.snaps, cc.err
}

// buildCheckpoints records one test case's snapshot set: a fresh
// uninjected instance of the recording's target runs to each
// checkpoint tick in ascending order, capturing at the tick boundary —
// the state just before tick `at` executes, which is exactly where a
// trap armed for `at` can first fire.
func (g *Golden) buildCheckpoints(caseIdx int) ([]*sim.Snapshot, error) {
	inst, err := g.target.NewInstance(g.cases[caseIdx], nil)
	if err != nil {
		return nil, fmt.Errorf("campaign: checkpoint pass case %d: %w", caseIdx, err)
	}
	ck, ok := inst.(target.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("campaign: checkpoint pass case %d: target is not checkpointable", caseIdx)
	}
	inst.Kernel().SetBudget(g.target.Budget)
	snaps := make([]*sim.Snapshot, len(g.ticks))
	for i, t := range g.ticks {
		// The pass is uninjected, so like a golden run it must neither
		// crash nor exhaust its budget; either means a broken target.
		if crashed, pv := runGuarded(inst, t.at); crashed {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d crashed before t=%d: %v", caseIdx, t.at, pv)
		}
		if inst.Kernel().Exhausted() {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d exceeded the run budget (%d steps used) before t=%d",
				caseIdx, inst.Kernel().BudgetUsed(), t.at)
		}
		if snaps[i], err = ck.Checkpoint(); err != nil {
			return nil, fmt.Errorf("campaign: checkpoint pass case %d at t=%d: %w", caseIdx, t.at, err)
		}
	}
	return snaps, nil
}
