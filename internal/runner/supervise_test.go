package runner

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"propane/internal/campaign"
	"propane/internal/report"
)

func TestRetryIORecoversTransientFailure(t *testing.T) {
	var slept []time.Duration
	orig := ioSleep
	ioSleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { ioSleep = orig }()

	calls := 0
	err := retryIO(3, nil, "append", func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retryIO: %v", err)
	}
	if calls != 3 {
		t.Errorf("op ran %d times, want 3", calls)
	}
	// Full jitter: each delay is drawn from [0, base<<attempt].
	if len(slept) != 2 || slept[0] < 0 || slept[0] > retryBaseDelay ||
		slept[1] < 0 || slept[1] > 2*retryBaseDelay {
		t.Errorf("backoff %v, want two draws within [0,%v] and [0,%v]",
			slept, retryBaseDelay, 2*retryBaseDelay)
	}
}

func TestRetryIOGivesUpAndCaps(t *testing.T) {
	var slept []time.Duration
	orig := ioSleep
	ioSleep = func(d time.Duration) { slept = append(slept, d) }
	defer func() { ioSleep = orig }()

	permanent := errors.New("disk on fire")
	err := retryIO(8, nil, "metrics write", func() error { return permanent })
	if !errors.Is(err, permanent) {
		t.Fatalf("error %v does not wrap the last failure", err)
	}
	if !strings.Contains(err.Error(), "after 9 attempts") {
		t.Errorf("error %q does not report the attempt count", err)
	}
	if len(slept) != 8 {
		t.Fatalf("slept %d times, want 8", len(slept))
	}
	ceiling := retryBaseDelay
	for i, d := range slept {
		if d < 0 || d > ceiling {
			t.Errorf("backoff %d drew %v, want within [0,%v]", i, d, ceiling)
		}
		if ceiling *= 2; ceiling > retryMaxDelay {
			ceiling = retryMaxDelay
		}
	}

	// Negative MaxRetries disables retrying entirely.
	calls := 0
	opts := Options{MaxRetries: -1}
	if err := retryIO(opts.maxRetries(), nil, "x", func() error { calls++; return permanent }); err == nil {
		t.Error("disabled retries still succeeded")
	}
	if calls != 1 {
		t.Errorf("op ran %d times with retries disabled, want 1", calls)
	}
}

// TestJournalRejectsFutureVersion pins the versions loading accepts:
// only 5, the binary-frame journal. 3 and 4 stored JSON-lines records
// and are refused saying the record encoding changed; 1 and 2 predate
// the required outcome field, and anything above 5 is from a newer
// build. A refusal names the version. A resume directory holding only
// an old journal.jsonl is refused with the same error, not started
// over beside it.
func TestJournalRejectsFutureVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.bin")
	for _, tc := range []struct {
		version int
		ok      bool
	}{{1, false}, {2, false}, {3, false}, {4, false}, {5, true}, {6, false}, {99, false}} {
		hdr := fmt.Sprintf(`{"type":"header","version":%d,"config_digest":"x"}`, tc.version) + "\n"
		if err := os.WriteFile(path, []byte(hdr), 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := loadJournal(path)
		switch {
		case tc.ok && err != nil:
			t.Errorf("version %d refused: %v", tc.version, err)
		case !tc.ok && err == nil:
			t.Errorf("loadJournal accepted journal version %d", tc.version)
		case !tc.ok && !strings.Contains(err.Error(), fmt.Sprintf("version %d", tc.version)):
			t.Errorf("version %d refusal does not name the version: %v", tc.version, err)
		case (tc.version == 3 || tc.version == 4) && !strings.Contains(err.Error(), "record encoding changed"):
			t.Errorf("version %d refusal does not say the record encoding changed: %v", tc.version, err)
		}
	}

	dir := t.TempDir()
	old := `{"type":"header","version":4,"instance":"reduced","tier":"quick","config_digest":"x"}` + "\n" +
		`{"type":"run","job":0,"module":"CALC","signal":"pulscnt","at_ms":500,"model":"bitflip:0","case":0,"fired":true,"outcome":"ok"}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := RunInstance("reduced", TierQuick, Options{Dir: dir, Resume: true})
	if err == nil || !strings.Contains(err.Error(), "version 4") || !strings.Contains(err.Error(), "record encoding changed") {
		t.Errorf("resume over a leftover version 4 journal.jsonl answered %v, want the record-encoding refusal", err)
	}
	if _, statErr := os.Stat(filepath.Join(dir, "journal.bin")); statErr == nil {
		t.Error("resume refused the old journal yet started a new one beside it")
	}
}

// TestHostileInstanceKillAndResume is the acceptance scenario: a
// campaign over a target with an always-panicking module and an
// infinite-looping module completes unattended with non-zero crash
// and hang counts, and a mid-flight kill resumes to the identical
// report.
func TestHostileInstanceKillAndResume(t *testing.T) {
	baseDir := t.TempDir()
	base, err := RunInstance("hostile", TierQuick, Options{Dir: baseDir})
	if err != nil {
		t.Fatal(err)
	}
	if base.Result.Crashes == 0 || base.Result.Hangs == 0 {
		t.Fatalf("hostile campaign saw %d crashes / %d hangs, want both non-zero",
			base.Result.Crashes, base.Result.Hangs)
	}
	if base.Metrics.Crashes != base.Result.Crashes || base.Metrics.Hangs != base.Result.Hangs {
		t.Errorf("metrics crashes/hangs %d/%d disagree with result %d/%d",
			base.Metrics.Crashes, base.Metrics.Hangs, base.Result.Crashes, base.Result.Hangs)
	}
	failuresMD, err := os.ReadFile(filepath.Join(baseDir, "failures.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"crash", "hang", "mine tripped"} {
		if !strings.Contains(string(failuresMD), want) {
			t.Errorf("failures.md misses %q", want)
		}
	}
	reportMD, err := os.ReadFile(filepath.Join(baseDir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reportMD), "Supervised failure modes") {
		t.Error("report.md misses the supervised-failure summary")
	}

	// The journal must carry the outcome taxonomy.
	_, recs, _, err := loadJournal(filepath.Join(baseDir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	byOutcome := map[string]int{}
	for _, r := range recs {
		byOutcome[r.Outcome]++
	}
	if byOutcome["crash"] != base.Result.Crashes || byOutcome["hang"] != base.Result.Hangs {
		t.Errorf("journaled outcomes %v disagree with result (%d crashes, %d hangs)",
			byOutcome, base.Result.Crashes, base.Result.Hangs)
	}
	if byOutcome[""] != 0 {
		t.Errorf("%d journal records lack an outcome", byOutcome[""])
	}

	wantMatrix, wantRuns, _ := fingerprintResult(t, base)
	pristine, err := os.ReadFile(filepath.Join(baseDir, "journal.bin"))
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int{len(pristine) / 3, len(pristine) - 5} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "journal.bin"), pristine[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		rr, err := RunInstance("hostile", TierQuick, Options{Dir: dir, Resume: true})
		if err != nil {
			t.Fatalf("resume after truncation at %d: %v", off, err)
		}
		matrix, runs, _ := fingerprintResult(t, rr)
		if matrix != wantMatrix || runs != wantRuns {
			t.Errorf("truncation at %d: resumed campaign diverged (runs %d want %d, matrix equal=%v)",
				off, runs, wantRuns, matrix == wantMatrix)
		}
		if rr.Result.Crashes != base.Result.Crashes || rr.Result.Hangs != base.Result.Hangs {
			t.Errorf("truncation at %d: crash/hang counts %d/%d, want %d/%d",
				off, rr.Result.Crashes, rr.Result.Hangs, base.Result.Crashes, base.Result.Hangs)
		}
	}
}

// TestQuarantineFlowsThroughArtifacts drives the full poison-job
// path at the orchestration layer: a worker fault outside the guarded
// target execution retries under the default policy, quarantines, is
// journaled (so resume never re-executes it), surfaces in failures.md
// and the report, and stays out of every denominator.
func TestQuarantineFlowsThroughArtifacts(t *testing.T) {
	def, err := Lookup("hostile")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	cfg.Instrument = func(inst campaign.Instance, caseIdx int) (any, error) {
		if caseIdx == 1 {
			panic("instrument corrupted state")
		}
		return nil, nil
	}

	dir := t.TempDir()
	rr, err := Run(cfg, Options{Name: "hostile", Tier: TierQuick, Dir: dir, QuarantineAfter: 2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(rr.Result.Quarantined) == 0 {
		t.Fatal("no jobs quarantined")
	}
	for _, q := range rr.Result.Quarantined {
		if q.Attempts != 2 {
			t.Errorf("job %v quarantined after %d attempts, want 2", q.Injection, q.Attempts)
		}
	}
	if rr.Metrics.Quarantined != len(rr.Result.Quarantined) {
		t.Errorf("metrics quarantined %d != result %d", rr.Metrics.Quarantined, len(rr.Result.Quarantined))
	}
	failuresMD, err := os.ReadFile(filepath.Join(dir, "failures.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(failuresMD), "quarantined") {
		t.Error("failures.md misses the quarantined class")
	}
	reportMD, err := os.ReadFile(filepath.Join(dir, "report.md"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(reportMD), "Quarantined jobs") {
		t.Error("report.md misses the quarantined-jobs section")
	}

	// Quarantined jobs are settled in the journal: a resume replays
	// them and executes nothing.
	rr2, err := Run(cfg, Options{Name: "hostile", Tier: TierQuick, Dir: dir, Resume: true, QuarantineAfter: 2})
	if err != nil {
		t.Fatalf("resume: %v", err)
	}
	if rr2.Metrics.ExecutedRuns != 0 {
		t.Errorf("resume re-executed %d runs (quarantined jobs not settled)", rr2.Metrics.ExecutedRuns)
	}
	if len(rr2.Result.Quarantined) != len(rr.Result.Quarantined) {
		t.Errorf("resume lost quarantined jobs: %d, want %d",
			len(rr2.Result.Quarantined), len(rr.Result.Quarantined))
	}
	if m1, m2 := report.MatrixCSV(rr.Result.Matrix), report.MatrixCSV(rr2.Result.Matrix); m1 != m2 {
		t.Error("resumed matrix differs despite identical journal")
	}
}

// TestQuarantineDisabledAborts pins the opt-out: QuarantineAfter < 0
// restores the fail-fast contract.
func TestQuarantineDisabledAborts(t *testing.T) {
	def, err := Lookup("hostile")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Instrument = func(inst campaign.Instance, caseIdx int) (any, error) {
		panic("instrument corrupted state")
	}
	_, err = Run(cfg, Options{Name: "hostile", Tier: TierQuick, Dir: t.TempDir(), QuarantineAfter: -1})
	if err == nil || !strings.Contains(err.Error(), "worker panic") {
		t.Errorf("Run with quarantine disabled: err = %v, want a worker panic abort", err)
	}
}

// TestRunBudgetStepsDigested pins the digest contract: the step
// budget changes run outcomes, so it must change the config digest;
// the wall backstop must not.
func TestRunBudgetStepsDigested(t *testing.T) {
	def, err := Lookup("reduced")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := def.Config(TierQuick)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cfg.Plan()
	if err != nil {
		t.Fatal(err)
	}
	s0, err := newSnapshot("reduced", TierQuick, cfg, len(plan), nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Budget.Steps = 1 << 20
	s1, err := newSnapshot("reduced", TierQuick, cfg, len(plan), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s0.Digest == s1.Digest {
		t.Error("step budget not part of the config digest")
	}
	cfg.Budget.Wall = time.Minute
	s2, err := newSnapshot("reduced", TierQuick, cfg, len(plan), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Digest != s2.Digest {
		t.Error("wall backstop leaked into the config digest")
	}
}
