package edm

import (
	"errors"
	"fmt"

	"propane/internal/campaign"
)

// Candidate is one possible EDM location with the mechanism's
// detection probability, offered to the placement optimiser.
type Candidate struct {
	Signal string
	// Efficiency in [0,1], as in Placement.
	Efficiency float64
	// Cost is the relative cost of deploying this mechanism (CPU,
	// memory, engineering effort). Must be positive; the optimiser
	// maximises coverage gained per unit cost.
	Cost float64
}

// Selection is the optimiser's outcome: the chosen candidates in
// selection order with the cumulative coverage after each pick.
type Selection struct {
	Candidate Candidate
	// Gain is the number of additional system-failure runs this pick
	// detects beyond the previously selected mechanisms.
	Gain int
	// CumulativeCoverage is the joint failure coverage after this
	// pick.
	CumulativeCoverage float64
}

// Optimize chooses up to k EDM locations from the candidates by
// running a fault-injection campaign and greedily maximising the
// *joint* coverage of system failures per unit cost — the
// experimental-data-driven combination selection of the paper's
// related work [18]: subsets that minimise overlap between mechanisms
// give the best cost-performance ratio. A candidate detects a given
// failure run when the monitored signal deviated no later than the
// system output and the run's deterministic coverage hash falls below
// the candidate's efficiency (the same model as Evaluate).
//
// The returned selections are in pick order; picking stops early when
// no remaining candidate adds coverage.
func Optimize(cfg campaign.Config, candidates []Candidate, k int) ([]Selection, error) {
	if len(candidates) == 0 {
		return nil, errors.New("edm: no candidates")
	}
	if k < 1 {
		return nil, errors.New("edm: k must be >= 1")
	}
	for _, c := range candidates {
		if c.Efficiency < 0 || c.Efficiency > 1 {
			return nil, fmt.Errorf("edm: efficiency %v of %s out of [0,1]", c.Efficiency, c.Signal)
		}
		if c.Cost <= 0 {
			return nil, fmt.Errorf("edm: cost %v of %s must be positive", c.Cost, c.Signal)
		}
	}
	if cfg.Observer != nil {
		return nil, errors.New("edm: campaign config already has an observer")
	}

	// detects[i] holds the failure-run ids candidate i would detect.
	detects := make([][]int, len(candidates))
	failures := 0
	cfg.Observer = func(rec campaign.RunRecord) {
		if !rec.Fired || !rec.SystemFailure {
			return
		}
		runID := failures
		failures++
		runKey := fmt.Sprintf("%s#%d", rec.Injection, rec.CaseIndex)
		for i, c := range candidates {
			d, ok := rec.Diffs.Get(c.Signal)
			if !ok || !d.Differs() || d.First > rec.FailureAt {
				continue
			}
			if coverageHash(runKey+"|"+c.Signal) < c.Efficiency {
				detects[i] = append(detects[i], runID)
			}
		}
	}
	if _, err := campaign.Run(cfg); err != nil {
		return nil, err
	}
	if failures == 0 {
		return nil, errors.New("edm: campaign produced no system failures; nothing to optimise")
	}

	covered := make([]bool, failures)
	used := make([]bool, len(candidates))
	var picks []Selection
	coveredCount := 0
	for len(picks) < k {
		best, bestGain := -1, 0
		bestRatio := 0.0
		for i, c := range candidates {
			if used[i] {
				continue
			}
			gain := 0
			for _, run := range detects[i] {
				if !covered[run] {
					gain++
				}
			}
			ratio := float64(gain) / c.Cost
			if gain > 0 && (best == -1 || ratio > bestRatio ||
				(ratio == bestRatio && c.Signal < candidates[best].Signal)) {
				best, bestGain, bestRatio = i, gain, ratio
			}
		}
		if best == -1 {
			break // no remaining candidate adds coverage
		}
		used[best] = true
		for _, run := range detects[best] {
			if !covered[run] {
				covered[run] = true
				coveredCount++
			}
		}
		picks = append(picks, Selection{
			Candidate:          candidates[best],
			Gain:               bestGain,
			CumulativeCoverage: float64(coveredCount) / float64(failures),
		})
	}
	return picks, nil
}

// FormatSelections renders the optimiser outcome one pick per line.
func FormatSelections(picks []Selection) string {
	out := ""
	for i, p := range picks {
		out += fmt.Sprintf("%d. EDM(%s, eff=%.2f, cost=%.1f)  +%d runs  joint coverage %.1f%%\n",
			i+1, p.Candidate.Signal, p.Candidate.Efficiency, p.Candidate.Cost,
			p.Gain, 100*p.CumulativeCoverage)
	}
	return out
}
