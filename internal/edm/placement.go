package edm

import (
	"errors"
	"fmt"
	"sort"

	"propane/internal/campaign"
)

// Placement is a candidate EDM location: a monitored signal and the
// mechanism's detection probability for errors that pass the signal
// (the paper's "detection probability"; deterministic in our harness
// via a per-run hash).
type Placement struct {
	Signal string
	// Efficiency in [0,1] is the probability that the mechanism
	// detects an error present on the monitored signal.
	Efficiency float64
}

// String renders the placement compactly.
func (p Placement) String() string {
	return fmt.Sprintf("EDM(%s, eff=%.2f)", p.Signal, p.Efficiency)
}

// Coverage is the outcome of evaluating one placement over a
// campaign.
type Coverage struct {
	Placement Placement
	// ErrorRuns is the number of runs in which any signal deviated
	// from the Golden Run.
	ErrorRuns int
	// SystemFailures is the number of runs in which a system output
	// deviated (the dangerous errors).
	SystemFailures int
	// Exposed counts system-failure runs in which the monitored signal
	// deviated — the runs where the mechanism had any chance at all.
	Exposed int
	// Detected counts system-failure runs the mechanism detected.
	Detected int
}

// FailureCoverage is the fraction of system-failure runs detected —
// the figure of merit of OB3.
func (c Coverage) FailureCoverage() float64 {
	if c.SystemFailures == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.SystemFailures)
}

// ExposureRate is the fraction of system-failure runs in which the
// monitored signal carried the error at all; it bounds the coverage
// regardless of the mechanism's efficiency.
func (c Coverage) ExposureRate() float64 {
	if c.SystemFailures == 0 {
		return 0
	}
	return float64(c.Exposed) / float64(c.SystemFailures)
}

// ERMPotential is, for one signal, the fraction of system-failure
// runs in which the signal deviated — the upper bound on the
// system-level benefit of a perfect recovery mechanism at that signal
// (OB5: SetValue and OutValue are part of all propagation paths, so a
// successful recovery there protects the system output entirely).
type ERMPotential struct {
	Signal    string
	Failures  int
	Deviated  int
	Potential float64
}

// Report is the outcome of a placement evaluation.
type Report struct {
	Coverages []Coverage
	// ERM holds the recovery potential for every signal, sorted by
	// decreasing potential.
	ERM []ERMPotential
	// CampaignResult is the underlying permeability campaign result.
	CampaignResult *campaign.Result
}

// Evaluate runs a fault-injection campaign and evaluates the given
// EDM placements against every injection run. Detection of a run is
// deterministic: the mechanism sees the run iff the monitored signal
// deviated from the Golden Run, and detects it iff the run's coverage
// hash falls below the mechanism's efficiency.
func Evaluate(cfg campaign.Config, placements []Placement) (*Report, error) {
	if len(placements) == 0 {
		return nil, errors.New("edm: no placements to evaluate")
	}
	for _, p := range placements {
		if p.Efficiency < 0 || p.Efficiency > 1 {
			return nil, fmt.Errorf("edm: efficiency %v of %s out of [0,1]", p.Efficiency, p.Signal)
		}
	}
	if cfg.Observer != nil {
		return nil, errors.New("edm: campaign config already has an observer")
	}

	coverages := make([]Coverage, len(placements))
	for i, p := range placements {
		coverages[i] = Coverage{Placement: p}
	}
	deviated := make(map[string]int)
	failures := 0

	cfg.Observer = func(rec campaign.RunRecord) {
		if !rec.Fired {
			return
		}
		anyDiff := false
		for _, d := range rec.Diffs {
			if d.Differs() {
				anyDiff = true
				break
			}
		}
		if rec.SystemFailure {
			failures++
			// A recovery or detection location only helps if the error
			// passes it no later than the system output fails; signals
			// that deviate only as a downstream consequence of the
			// failure (through the environment loop) do not count.
			for _, d := range rec.Diffs {
				if d.Differs() && d.First <= rec.FailureAt {
					deviated[d.Signal]++
				}
			}
		}
		runKey := fmt.Sprintf("%s#%d", rec.Injection, rec.CaseIndex)
		for i := range coverages {
			c := &coverages[i]
			if anyDiff {
				c.ErrorRuns++
			}
			if !rec.SystemFailure {
				continue
			}
			c.SystemFailures++
			d, ok := rec.Diffs.Get(c.Placement.Signal)
			if !ok || !d.Differs() || d.First > rec.FailureAt {
				continue
			}
			c.Exposed++
			if coverageHash(runKey+"|"+c.Placement.Signal) < c.Placement.Efficiency {
				c.Detected++
			}
		}
	}

	res, err := campaign.Run(cfg)
	if err != nil {
		return nil, err
	}

	var erm []ERMPotential
	for sig, n := range deviated {
		p := ERMPotential{Signal: sig, Failures: failures, Deviated: n}
		if failures > 0 {
			p.Potential = float64(n) / float64(failures)
		}
		erm = append(erm, p)
	}
	sort.Slice(erm, func(a, b int) bool {
		if erm[a].Potential != erm[b].Potential {
			return erm[a].Potential > erm[b].Potential
		}
		return erm[a].Signal < erm[b].Signal
	})

	return &Report{Coverages: coverages, ERM: erm, CampaignResult: res}, nil
}
