package distrib

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"propane/internal/campaign"
	"propane/internal/runner"
)

// adaptiveBaseline runs the single-node adaptive reference campaign
// once per test binary: the result and journal record set every
// distributed adaptive run must reproduce exactly — the stopping
// decisions are a pure function of (config, ε), never of fleet size
// or dispatch interleaving.
var (
	adaptiveOnce    sync.Once
	adaptiveMatrix  string
	adaptiveRuns    int
	adaptiveUnfired int
	adaptiveDigest  string
	adaptiveErr     error
)

func adaptiveBaseline(t *testing.T) (string, int, int, string) {
	t.Helper()
	adaptiveOnce.Do(func() {
		dir, err := os.MkdirTemp("", "propane-adaptive-direct-*")
		if err != nil {
			adaptiveErr = err
			return
		}
		defer os.RemoveAll(dir)
		rr, err := runner.RunInstance("reduced", runner.TierQuick, runner.Options{
			Dir: dir, Adaptive: campaign.AdaptiveForce,
		})
		if err != nil {
			adaptiveErr = err
			return
		}
		if rr.Result.Adaptive == nil {
			adaptiveErr = errors.New("single-node adaptive run carries no AdaptiveStats")
			return
		}
		adaptiveMatrix, adaptiveRuns, adaptiveUnfired = fingerprint(rr)
		_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
		if err != nil {
			adaptiveErr = err
			return
		}
		adaptiveDigest = runner.RecordSetDigest(recs)
	})
	if adaptiveErr != nil {
		t.Fatal(adaptiveErr)
	}
	return adaptiveMatrix, adaptiveRuns, adaptiveUnfired, adaptiveDigest
}

// assertMatchesAdaptiveBaseline fails unless rr — and the record set
// journaled under dir — is bit-identical to the single-node adaptive
// run.
func assertMatchesAdaptiveBaseline(t *testing.T, rr *runner.RunResult, dir string) {
	t.Helper()
	wantM, wantR, wantU, wantDigest := adaptiveBaseline(t)
	if rr.Result.Adaptive == nil {
		t.Fatal("distributed adaptive result carries no AdaptiveStats")
	}
	gotM, gotR, gotU := fingerprint(rr)
	if gotR != wantR || gotU != wantU {
		t.Errorf("assembled counts = (%d runs, %d unfired), single-node adaptive = (%d, %d)",
			gotR, gotU, wantR, wantU)
	}
	if gotM != wantM {
		t.Errorf("assembled adaptive matrix differs from the single-node adaptive run:\n--- single-node ---\n%s\n--- assembled ---\n%s", wantM, gotM)
	}
	hdr, recs, err := runner.ReadJournal(runner.ShardJournalPath(dir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if hdr.Version != 5 { // the runner's journalVersion, stamped by every campaign
		t.Errorf("coordinator journal stamped version %d, want 5", hdr.Version)
	}
	if got := runner.RecordSetDigest(recs); got != wantDigest {
		t.Error("coordinator journal's record set diverged from the single-node adaptive run — the fleet made different scheduling decisions")
	}
}

// TestAdaptiveLoopbackMatchesSingleNode is the distributed-adaptive
// core guarantee: an adaptive campaign carved into job-list units,
// executed by a fleet over real HTTP with the coordinator owning the
// sequential scheduler, journals the bit-identical record set — and
// assembles the bit-identical result — of a single-node adaptive run.
func TestAdaptiveLoopbackMatchesSingleNode(t *testing.T) {
	dir := t.TempDir()
	rr, err := Loopback(Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Adaptive: campaign.AdaptiveForce,
		Logf:     t.Logf,
	}, 3, WorkerOptions{BatchSize: 8, PollInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesAdaptiveBaseline(t, rr, dir)
}

// TestAdaptiveCoordinatorResume kills both sides of an adaptive
// campaign mid-flight: a worker streams part of its unit and dies,
// then the coordinator restarts with Resume — re-deriving the
// sequential schedule from the config and replaying the journaled
// records through it, with carve events deliberately ignored — and a
// fresh fleet finishes the campaign. The reassembled result and
// record set are bit-identical to the single-node adaptive run.
func TestAdaptiveCoordinatorResume(t *testing.T) {
	dir := t.TempDir()
	cc := Config{
		Instance: "reduced",
		Tier:     runner.TierQuick,
		Dir:      dir,
		Adaptive: campaign.AdaptiveForce,
		LeaseTTL: 2 * time.Second,
		Logf:     t.Logf,
	}
	coord, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}

	// Adaptive units are explicit job lists claimed from the planner,
	// and every unit advertises the resolved adaptive options so the
	// worker digests identically.
	probe, ok := coord.TryLease("probe")
	if !ok || probe.Unit == nil {
		t.Fatal("adaptive coordinator granted no unit")
	}
	if probe.Unit.JobList == nil {
		t.Fatal("adaptive work unit carries no job list")
	}
	if !probe.Unit.Adaptive || probe.Unit.CIEpsilon <= 0 {
		t.Fatalf("adaptive work unit advertises Adaptive=%t CIEpsilon=%v, want the resolved adaptive options",
			probe.Unit.Adaptive, probe.Unit.CIEpsilon)
	}
	// The probe never heartbeats; its unit reassigns after the TTL.

	url, srv := serveCoordinator(t, coord)
	streamed, _ := runPartialWorker(t, url, filepath.Join(dir, "scratch"), 2)
	srv.Close()
	if err := coord.Close(); err != nil {
		t.Fatal(err)
	}

	cc.Resume = true
	coord2, err := NewCoordinator(cc)
	if err != nil {
		t.Fatal(err)
	}
	st := coord2.Status()
	if !st.Adaptive {
		t.Error("resumed adaptive coordinator does not report adaptive status")
	}
	if st.DoneRuns != streamed {
		t.Fatalf("restarted coordinator restored %d runs, want %d", st.DoneRuns, streamed)
	}
	url2, srv2 := serveCoordinator(t, coord2)
	defer srv2.Close()

	const fleet = 2
	errs := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		name := "aw" + string(rune('0'+i))
		go func() {
			errs <- RunWorker(url2, WorkerOptions{
				Name:         name,
				Dir:          filepath.Join(dir, "scratch"),
				BatchSize:    8,
				PollInterval: 50 * time.Millisecond,
				Logf:         t.Logf,
			})
		}()
	}
	select {
	case <-coord2.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("resumed adaptive campaign did not complete")
	}
	for i := 0; i < fleet; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	m := coord2.Metrics()
	if !m.Adaptive || m.PopulationRuns <= 0 {
		t.Errorf("adaptive metrics = (adaptive=%t, population=%d), want adaptive with a population",
			m.Adaptive, m.PopulationRuns)
	}
	if m.ResumedRuns != streamed {
		t.Errorf("metrics count %d resumed runs, want %d", m.ResumedRuns, streamed)
	}

	rr, err := coord2.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	assertMatchesAdaptiveBaseline(t, rr, dir)
}

// TestNewCoordinatorRejectsBadCIEpsilon: a NaN or negative ε must fail
// planning instead of silently selecting the default.
func TestNewCoordinatorRejectsBadCIEpsilon(t *testing.T) {
	for _, eps := range []float64{math.NaN(), -1} {
		_, err := NewCoordinator(Config{
			Instance: "reduced", Tier: runner.TierQuick, Dir: t.TempDir(),
			Adaptive: campaign.AdaptiveForce, CIEpsilon: eps,
		})
		if !errors.Is(err, campaign.ErrInvalidConfig) {
			t.Errorf("CIEpsilon %v: error %v, want campaign.ErrInvalidConfig", eps, err)
		}
	}
}

// TestFleetExecutesWhatSingleNodeExecutes: with one worker on each
// side, the paper's quick adaptive campaign executes as many runs to
// the horizon through a one-agent loopback fleet as on a single node,
// and journals the same record set. Work units run on one Golden
// whose sibling table outlives each unit, so a unit splices from
// every earlier one as the single node's one Run does; a counter
// judges this, not wall time.
func TestFleetExecutesWhatSingleNodeExecutes(t *testing.T) {
	dir := t.TempDir()
	single, err := runner.RunInstance("paper", runner.TierQuick, runner.Options{
		Dir: dir, Workers: 1, Adaptive: campaign.AdaptiveForce,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, recs, err := runner.ReadJournal(runner.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	fleetDir := t.TempDir()
	fleet, err := Loopback(Config{
		Instance: "paper",
		Tier:     runner.TierQuick,
		Dir:      fleetDir,
		Adaptive: campaign.AdaptiveForce,
		Logf:     t.Logf,
	}, 1, WorkerOptions{Workers: 1, PollInterval: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	_, fleetRecs, err := runner.ReadJournal(runner.ShardJournalPath(fleetDir, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := runner.RecordSetDigest(fleetRecs), runner.RecordSetDigest(recs); got != want {
		t.Error("the fleet's record set differs from the single node's")
	}
	got, want := fleet.Result.Pruning.Executed, single.Result.Pruning.Executed
	t.Logf("runs executed to the horizon: fleet %d, single node %d", got, want)
	if got != want {
		t.Errorf("the fleet executed %d runs to the horizon, the single node %d", got, want)
	}
}
