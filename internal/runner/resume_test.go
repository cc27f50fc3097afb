package runner

import (
	"os"
	"path/filepath"
	"testing"

	"propane/internal/report"
)

// fingerprintResult reduces a RunResult to the strings the acceptance
// criterion cares about: the permeability matrix (bit-identical CSV)
// and the raw run counts.
func fingerprintResult(t *testing.T, rr *RunResult) (matrix string, runs, unfired int) {
	t.Helper()
	return report.MatrixCSV(rr.Result.Matrix), rr.Result.Runs, rr.Result.Unfired
}

// TestKillAndResume is the subsystem's core guarantee: a campaign
// killed mid-journal resumes from the checkpoint and converges to the
// bit-identical permeability matrix of an uninterrupted run. The kill
// is simulated by truncating the journal at several byte offsets —
// including mid-record (a torn line) and mid-header — exactly what a
// SIGKILL during an append leaves behind.
func TestKillAndResume(t *testing.T) {
	baseDir := t.TempDir()
	base, err := RunInstance("reduced", TierQuick, Options{Dir: baseDir})
	if err != nil {
		t.Fatal(err)
	}
	wantMatrix, wantRuns, wantUnfired := fingerprintResult(t, base)

	pristine, err := os.ReadFile(filepath.Join(baseDir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pristine) < 200 {
		t.Fatalf("journal implausibly small: %d bytes", len(pristine))
	}

	offsets := []int{
		10,                     // mid-header: everything re-runs
		len(pristine) * 1 / 10, // early kill
		len(pristine) * 3 / 5,  // late kill
		len(pristine) - 7,      // torn final record
		len(pristine),          // clean completion, resume is a no-op
	}
	for _, off := range offsets {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.bin"), pristine[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rr, err := RunInstance("reduced", TierQuick, Options{Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("resume after truncation at %d: %v", off, err)
		}
		matrix, runs, unfired := fingerprintResult(t, rr)
		if runs != wantRuns || unfired != wantUnfired {
			t.Errorf("truncation at %d: runs/unfired %d/%d, want %d/%d", off, runs, unfired, wantRuns, wantUnfired)
		}
		if matrix != wantMatrix {
			t.Errorf("truncation at %d: resumed matrix differs from uninterrupted run", off)
		}
		if rr.Metrics.ReplayedRuns+rr.Metrics.ExecutedRuns != wantRuns {
			t.Errorf("truncation at %d: replayed %d + executed %d != %d",
				off, rr.Metrics.ReplayedRuns, rr.Metrics.ExecutedRuns, wantRuns)
		}
		if off > len(pristine)/2 && rr.Metrics.ReplayedRuns == 0 {
			t.Errorf("truncation at %d: nothing replayed — journal ignored", off)
		}
		// The resumed artifact directory must be complete.
		for _, name := range []string{"config.json", "journal.bin", "metrics.json", "failures.md", "report.md"} {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("truncation at %d: missing artifact %s", off, name)
			}
		}
		// And the healed journal must now replay in full.
		_, recs, _, err := loadJournal(filepath.Join(dir, "journal.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != wantRuns {
			t.Errorf("truncation at %d: healed journal has %d records, want %d", off, len(recs), wantRuns)
		}
	}
}
