package runner

import (
	"path/filepath"
	"sync/atomic"
	"testing"

	"propane/internal/campaign"
)

// TestPrunedKillAndResume proves pruning composes with the journal
// lifecycle: a pruned campaign aborted mid-flight resumes (pruned
// records replay like executed ones) and converges to the
// bit-identical matrix of an unpruned, uninterrupted full-replay run —
// and the pruned labels survive the journal round trip into the
// metrics.
func TestPrunedKillAndResume(t *testing.T) {
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	// An Instrument hook turns both fast paths off: every run of the
	// reference executes in full from t=0.
	ref.Instrument = func(campaign.Instance, int) (any, error) { return nil, nil }
	base, err := Run(ref, Options{Name: "reduced", Tier: TierQuick, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	wantMatrix, wantRuns, wantUnfired := fingerprintResult(t, base)
	if base.Metrics.PrunedRuns+base.Metrics.MemoizedRuns+base.Metrics.ConvergedRuns != 0 {
		t.Fatalf("instrumented run still counted pruning: %+v", base.Metrics)
	}

	// Abort the pruned run (pruning defaults on through the runner)
	// partway through — the moral equivalent of a kill, with the
	// journal left at whatever the workers had flushed.
	dir := t.TempDir()
	var seen atomic.Int32
	aborted, err := RunInstance("reduced", TierQuick, Options{
		Dir:      dir,
		OnRecord: func(rec Record, replayed bool) error { seen.Add(1); return nil },
		Abort:    func() bool { return seen.Load() >= 40 },
	})
	if err != nil {
		t.Fatal(err)
	}
	if aborted.Metrics.ExecutedRuns >= wantRuns {
		t.Fatalf("abort did not interrupt the campaign: %d/%d runs executed", aborted.Metrics.ExecutedRuns, wantRuns)
	}

	rr, err := RunInstance("reduced", TierQuick, Options{Dir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	matrix, runs, unfired := fingerprintResult(t, rr)
	if runs != wantRuns || unfired != wantUnfired {
		t.Errorf("resumed pruned run counts %d/%d, want %d/%d", runs, unfired, wantRuns, wantUnfired)
	}
	if matrix != wantMatrix {
		t.Error("resumed pruned matrix differs from the unpruned uninterrupted run")
	}
	if rr.Metrics.ReplayedRuns == 0 {
		t.Error("nothing replayed — the aborted journal was ignored")
	}

	// Every journaled pruned label must be reflected in the metrics,
	// whether its record was replayed or executed this process.
	_, recs, _, err := loadJournal(filepath.Join(dir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	labeled := 0
	for _, r := range recs {
		switch r.Pruned {
		case "", campaign.PrunedNoOp, campaign.PrunedUnfired, campaign.PrunedMemoized, campaign.PrunedConverged:
		default:
			t.Errorf("job %d journaled with unknown pruned label %q", r.Job, r.Pruned)
		}
		if r.Pruned != "" {
			labeled++
		}
	}
	m := rr.Metrics
	if got := m.PrunedRuns + m.MemoizedRuns + m.ConvergedRuns; got != labeled {
		t.Errorf("metrics count %d pruned runs, journal carries %d labels", got, labeled)
	}
	if wantUnfired > 0 && m.PrunedRuns < wantUnfired {
		t.Errorf("%d unfired traps but only %d pruned runs — unfired prediction incomplete", wantUnfired, m.PrunedRuns)
	}
}

// TestRunFastPathsAndTiming pins what Run reports without caller
// instrumentation: the campaign's fast paths engage (some runs settle
// pruned or converged) and per-run timing still feeds the throughput
// metrics.
func TestRunFastPathsAndTiming(t *testing.T) {
	rr, err := RunInstance("reduced", TierQuick, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m := rr.Metrics
	if m.PrunedRuns+m.ConvergedRuns == 0 {
		t.Errorf("no run settled pruned or converged: %+v", m)
	}
	if m.MeanRunMs <= 0 {
		t.Errorf("MeanRunMs = %v, want > 0", m.MeanRunMs)
	}
	if m.WorkerUtilization <= 0 {
		t.Errorf("WorkerUtilization = %v, want > 0", m.WorkerUtilization)
	}
}

// TestRunCallerInstrument: a caller's Instrument hook turns the fast
// paths off — no record is pruned — and the caller's Observer sees the
// caller's own attachment on every record.
func TestRunCallerInstrument(t *testing.T) {
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	type attachment struct{ caseIdx int }
	cfg.Instrument = func(_ campaign.Instance, caseIdx int) (any, error) {
		return &attachment{caseIdx: caseIdx}, nil
	}
	observed := 0
	cfg.Observer = func(rec campaign.RunRecord) {
		observed++
		if rec.Pruned != "" {
			t.Errorf("%v case %d: pruned %q under a caller Instrument", rec.Injection, rec.CaseIndex, rec.Pruned)
		}
		if att, ok := rec.Attachment.(*attachment); !ok || att.caseIdx != rec.CaseIndex {
			t.Errorf("%v case %d: attachment %#v, want the caller's own", rec.Injection, rec.CaseIndex, rec.Attachment)
		}
	}
	rr, err := Run(cfg, Options{Name: "reduced", Tier: TierQuick, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if observed == 0 || observed != rr.Metrics.ExecutedRuns {
		t.Errorf("observer saw %d records, runner executed %d", observed, rr.Metrics.ExecutedRuns)
	}
}
