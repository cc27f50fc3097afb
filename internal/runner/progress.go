package runner

import (
	"encoding/json"
	"fmt"
	"time"

	"propane/internal/campaign"
)

// ModuleCounter tracks the paper's raw counts for one module: n_inj
// (runs whose trap fired on one of the module's inputs) and n_err
// (those that deviated a system output).
type ModuleCounter struct {
	Injections int `json:"n_inj"`
	Errors     int `json:"n_err"`
	// Crashes and Hangs count the module's supervised failure modes;
	// they are excluded from Injections (the estimate denominator).
	Crashes int `json:"n_crash,omitempty"`
	Hangs   int `json:"n_hang,omitempty"`
}

// Metrics is the exportable observability snapshot of a campaign run
// (written to metrics.json and rendered as periodic log lines).
type Metrics struct {
	Instance string `json:"instance"`
	Tier     string `json:"tier"`
	Workers  int    `json:"workers"`
	// TotalRuns is the whole campaign's job count; PlannedRuns is
	// this process's share (Options.Jobs); ReplayedRuns were restored from the journal
	// and ExecutedRuns ran in this process.
	TotalRuns    int `json:"total_runs"`
	PlannedRuns  int `json:"planned_runs"`
	ReplayedRuns int `json:"replayed_runs"`
	ExecutedRuns int `json:"executed_runs"`
	// Unfired counts runs whose trap never fired; SystemFailures
	// counts runs that deviated a system output; UniqueFailures is
	// the deduplicated failure-class count.
	Unfired        int `json:"unfired"`
	SystemFailures int `json:"system_failures"`
	UniqueFailures int `json:"unique_failures"`
	// Crashes and Hangs count runs terminated by a target panic or by
	// the watchdog; Quarantined counts poison jobs abandoned by the
	// supervisor. None of them enter a permeability denominator.
	Crashes     int `json:"crashes,omitempty"`
	Hangs       int `json:"hangs,omitempty"`
	Quarantined int `json:"quarantined,omitempty"`
	// Equivalence-pruning counters. PrunedRuns counts runs whose
	// outcome was proven without simulating (unfired traps and no-op
	// corruptions); MemoizedRuns were served from the result cache;
	// ConvergedRuns executed but stopped early at a state that
	// reconverged with the golden run. All of them still carry full
	// outcomes and enter every n_inj/n_err counter as usual.
	PrunedRuns    int `json:"pruned_runs,omitempty"`
	MemoizedRuns  int `json:"memoized_runs,omitempty"`
	ConvergedRuns int `json:"converged_runs,omitempty"`
	// StoreMemoRuns counts the subset of memoized runs served from a
	// persistent memo store (Options.Memo) — results executed by an
	// earlier campaign, possibly in another process. Also included in
	// MemoizedRuns.
	StoreMemoRuns int `json:"store_memo_runs,omitempty"`
	// Throughput and worker economics. WorkerUtilization is
	// busy-time / (elapsed × workers); per-run busy time is measured
	// up to the serial observer, so queueing behind the observer can
	// push it slightly above 1.
	ElapsedSeconds    float64 `json:"elapsed_seconds"`
	RunsPerSecond     float64 `json:"runs_per_second"`
	ETASeconds        float64 `json:"eta_seconds"`
	MeanRunMs         float64 `json:"mean_run_ms"`
	WorkerUtilization float64 `json:"worker_utilization"`
	// Modules holds the per-module n_err/n_inj counters.
	Modules map[string]*ModuleCounter `json:"modules"`
}

// tracker folds per-run observations into Metrics. It runs on the
// campaign's serial observer path; no locking needed.
type tracker struct {
	m        Metrics
	start    time.Time
	busy     time.Duration
	interval time.Duration
	lastLog  time.Time
	logf     func(format string, args ...any)
}

func newTracker(m Metrics, interval time.Duration, logf func(string, ...any)) *tracker {
	now := time.Now()
	if m.Modules == nil {
		m.Modules = make(map[string]*ModuleCounter)
	}
	return &tracker{m: m, start: now, lastLog: now, interval: interval, logf: logf}
}

// counter returns the module's counter, creating it on first use.
func (t *tracker) counter(module string) *ModuleCounter {
	c, ok := t.m.Modules[module]
	if !ok {
		c = &ModuleCounter{}
		t.m.Modules[module] = c
	}
	return c
}

// absorb counts one run — replayed from the journal or executed live
// (dur > 0 only for live runs).
func (t *tracker) absorb(rec campaign.RunRecord, dur time.Duration, replayed bool) {
	if replayed {
		t.m.ReplayedRuns++
	} else {
		t.m.ExecutedRuns++
		t.busy += dur
	}
	switch rec.Pruned {
	case campaign.PrunedNoOp, campaign.PrunedUnfired:
		t.m.PrunedRuns++
	case campaign.PrunedMemoized:
		t.m.MemoizedRuns++
	case campaign.PrunedMemoStore:
		t.m.MemoizedRuns++
		t.m.StoreMemoRuns++
	case campaign.PrunedConverged:
		t.m.ConvergedRuns++
	}
	switch rec.Outcome {
	case campaign.OutcomeQuarantined:
		t.m.Quarantined++
		return
	case campaign.OutcomeCrash:
		t.m.Crashes++
		if rec.Fired {
			t.counter(rec.Injection.Module).Crashes++
		}
		return
	case campaign.OutcomeHang:
		t.m.Hangs++
		if rec.Fired {
			t.counter(rec.Injection.Module).Hangs++
		}
		return
	}
	if !rec.Fired {
		t.m.Unfired++
		return
	}
	c := t.counter(rec.Injection.Module)
	c.Injections++
	if rec.SystemFailure {
		c.Errors++
		t.m.SystemFailures++
	}
}

// snapshot computes the derived rates at a point in time.
func (t *tracker) snapshot(now time.Time) Metrics {
	m := t.m
	m.ElapsedSeconds = now.Sub(t.start).Seconds()
	if m.ElapsedSeconds > 0 {
		m.RunsPerSecond = float64(m.ExecutedRuns) / m.ElapsedSeconds
	}
	if m.ExecutedRuns > 0 {
		m.MeanRunMs = float64(t.busy.Milliseconds()) / float64(m.ExecutedRuns)
	}
	if remaining := m.PlannedRuns - m.ReplayedRuns - m.ExecutedRuns; remaining > 0 && m.RunsPerSecond > 0 {
		m.ETASeconds = float64(remaining) / m.RunsPerSecond
	}
	if m.Workers > 0 && m.ElapsedSeconds > 0 {
		m.WorkerUtilization = t.busy.Seconds() / (m.ElapsedSeconds * float64(m.Workers))
	}
	// Deep-copy the counters so the snapshot is stable.
	m.Modules = make(map[string]*ModuleCounter, len(t.m.Modules))
	for name, c := range t.m.Modules {
		cc := *c
		m.Modules[name] = &cc
	}
	return m
}

// maybeLog emits a progress line when the configured interval has
// elapsed since the last one.
func (t *tracker) maybeLog(uniqueFailures int) {
	if t.logf == nil || t.interval <= 0 {
		return
	}
	now := time.Now()
	if now.Sub(t.lastLog) < t.interval {
		return
	}
	t.lastLog = now
	t.m.UniqueFailures = uniqueFailures
	m := t.snapshot(now)
	done := m.ReplayedRuns + m.ExecutedRuns
	pct := 0.0
	if m.PlannedRuns > 0 {
		pct = 100 * float64(done) / float64(m.PlannedRuns)
	}
	supervised := ""
	if m.Crashes+m.Hangs+m.Quarantined > 0 {
		supervised = fmt.Sprintf(", %d crash/%d hang/%d quarantined", m.Crashes, m.Hangs, m.Quarantined)
	}
	pruned := ""
	if m.PrunedRuns+m.MemoizedRuns+m.ConvergedRuns > 0 {
		pruned = fmt.Sprintf(", %d pruned/%d memoized/%d converged", m.PrunedRuns, m.MemoizedRuns, m.ConvergedRuns)
	}
	t.logf("%s/%s: %d/%d runs (%.1f%%), %.0f runs/s, ETA %.0fs, util %.0f%%, %d failures (%d unique)%s%s",
		m.Instance, m.Tier, done, m.PlannedRuns, pct,
		m.RunsPerSecond, m.ETASeconds, 100*m.WorkerUtilization,
		m.SystemFailures, uniqueFailures, supervised, pruned)
}

// writeMetrics exports the final snapshot as metrics.json.
func writeMetrics(path string, m Metrics) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(path, append(data, '\n'))
}
