package runner

import (
	"errors"
	"os"
	"testing"

	"propane/internal/campaign"
	"propane/internal/report"
)

// assembleFixture runs reduced/quick once and returns its directory,
// config and result — the substrate for the Assemble-hardening tests.
func assembleFixture(t *testing.T) (dir string, rr *RunResult) {
	t.Helper()
	dir = t.TempDir()
	rr, err := RunInstance("reduced", TierQuick, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return dir, rr
}

// assemble prepares cfg and assembles the journals under opts.Dir.
func assemble(cfg campaign.Config, opts Options) (*RunResult, error) {
	p, err := Prepare(cfg, opts)
	if err != nil {
		return nil, err
	}
	return assembleJournals(p, opts)
}

// assembleJournals is a cold assembly, as a resumed coordinator does
// it: merge the journals under opts.Dir, replay them through the
// adaptive schedule when there is one, and assemble.
func assembleJournals(p *Prepared, opts Options) (*RunResult, error) {
	recs, err := p.LoadJournals(opts.Dir)
	if err != nil {
		return nil, err
	}
	var planner *campaign.AdaptivePlanner
	if p.Info().Adaptive {
		if planner, err = p.Planner(recs); err != nil {
			return nil, err
		}
	}
	return p.Assemble(recs, planner, len(recs), Timing{}, opts)
}

func reducedQuickConfig(t *testing.T) campaign.Config {
	t.Helper()
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	c, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAssembleDigestMismatch pins the sentinel: assembling journals
// under a drifted configuration (here a different run budget, which
// is part of the digest) fails with ErrDigestMismatch, not a generic
// error string.
func TestAssembleDigestMismatch(t *testing.T) {
	dir, _ := assembleFixture(t)
	cfg := reducedQuickConfig(t)
	_, err := assemble(cfg, Options{Name: "reduced", Tier: TierQuick, Dir: dir, RunBudgetSteps: 123456789})
	if err == nil {
		t.Fatal("Assemble accepted journals written under a different config digest")
	}
	if !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("err = %v, want errors.Is(err, ErrDigestMismatch)", err)
	}
}

// TestAssembleIdempotentOverlap pins the distributed-overlap
// contract: a journal that holds every record twice with identical
// content assembles cleanly (a reassigned lease may deliver the same
// work twice), while a duplicate that disagrees about a record's
// content fails with ErrConflictingRecords.
func TestAssembleIdempotentOverlap(t *testing.T) {
	dir, direct := assembleFixture(t)
	cfg := reducedQuickConfig(t)
	path := JournalPath(dir)
	hdr, recs, _, err := loadJournal(path)
	if err != nil || len(recs) == 0 {
		t.Fatalf("loading %s: %d records, %v", path, len(recs), err)
	}
	appendFrame := func(recs []Record) {
		t.Helper()
		w, err := openJournal(path, hdr)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Exact copy: every record arrives twice with identical content.
	appendFrame(recs)
	rr, err := assemble(cfg, Options{Name: "reduced", Tier: TierQuick, Dir: dir})
	if err != nil {
		t.Fatalf("Assemble rejected an idempotent duplicate frame: %v", err)
	}
	if m1, m2 := report.MatrixCSV(direct.Result.Matrix), report.MatrixCSV(rr.Result.Matrix); m1 != m2 {
		t.Error("matrix changed after assembling with a duplicate frame")
	}

	// Conflicting copy: flip one record's fired flag. The journal now
	// disagrees with itself about a simulation outcome, and assembly
	// must refuse.
	conflict := recs[0]
	conflict.Fired = !conflict.Fired
	appendFrame([]Record{conflict})
	_, err = assemble(cfg, Options{Name: "reduced", Tier: TierQuick, Dir: dir})
	if err == nil {
		t.Fatal("Assemble merged records that disagree about a run's content")
	}
	if !errors.Is(err, ErrConflictingRecords) {
		t.Fatalf("err = %v, want errors.Is(err, ErrConflictingRecords)", err)
	}
}

// TestAssembleRefusesIncomplete: a journal missing some of a
// full-matrix campaign's jobs (here one truncated by a kill) must not
// assemble into a report — the missing runs would silently shrink
// every n_inj.
func TestAssembleRefusesIncomplete(t *testing.T) {
	dir, _ := assembleFixture(t)
	cfg := reducedQuickConfig(t)
	path := JournalPath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := assemble(cfg, Options{Name: "reduced", Tier: TierQuick, Dir: dir}); err == nil {
		t.Fatal("Assemble accepted a journal missing half the campaign")
	}
}

// TestJobsSliceAssembles: a run given Options.Jobs executes and
// journals exactly that slice; a second process resuming the same
// directory with the complementary slice fills in the rest, and the
// merged journal assembles bit-identically to an unsliced run. Both
// slices and the assembly run from one Prepared, as a distributed
// worker and coordinator do.
func TestJobsSliceAssembles(t *testing.T) {
	_, direct := assembleFixture(t)
	total := direct.Metrics.TotalRuns
	var even, odd []int
	for job := 0; job < total; job++ {
		if job%2 == 0 {
			even = append(even, job)
		} else {
			odd = append(odd, job)
		}
	}

	p, err := PrepareInstance("reduced", TierQuick, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Dir: dir, Jobs: even, SkipReport: true}
	rr, err := p.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Metrics.PlannedRuns != len(even) || rr.Metrics.ExecutedRuns != len(even) {
		t.Errorf("slice planned %d / executed %d runs, want %d", rr.Metrics.PlannedRuns, rr.Metrics.ExecutedRuns, len(even))
	}
	_, recs, err := ReadJournal(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Job%2 != 0 {
			t.Fatalf("slice journaled job %d outside its Jobs list", rec.Job)
		}
	}

	// The other slice replays nothing of the first and executes only
	// its own jobs.
	opts.Jobs, opts.Resume = odd, true
	rr, err = p.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if rr.Metrics.ReplayedRuns != 0 || rr.Metrics.ExecutedRuns != len(odd) {
		t.Errorf("second slice replayed %d / executed %d runs, want 0/%d", rr.Metrics.ReplayedRuns, rr.Metrics.ExecutedRuns, len(odd))
	}

	rr, err = assembleJournals(p, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if report.MatrixCSV(rr.Result.Matrix) != report.MatrixCSV(direct.Result.Matrix) {
		t.Error("assembled slices differ from the unsliced run")
	}
}
