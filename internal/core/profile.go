package core

import (
	"fmt"
	"sort"
)

// WeightedPath is a propagation path whose weight has been adjusted
// with the error-occurrence probability of its source signal — the P'
// of the paper's Section 4.2: "If the probability of an error
// appearing on I^A_1 is Pr(A_1), then P can be adjusted with this
// factor."
type WeightedPath struct {
	Path Path
	// SourceProb is the assumed probability of an error appearing on
	// the path's source (leaf) signal.
	SourceProb float64
	// Adjusted is SourceProb × the path weight.
	Adjusted float64
}

// OutputErrorProfile combines the backtrack tree of a system output
// with per-input error-occurrence probabilities, producing the
// adjusted path probabilities P' and their sum — a comparative index
// of how exposed the output is to external errors under the assumed
// error model. Feedback paths carry no external source and are
// excluded; inputs missing from prob default to probability zero.
//
// The sum is a union-bound style index for relative comparison (of
// outputs, or of design alternatives), not an exact failure
// probability — path events are not disjoint.
func OutputErrorProfile(m *Matrix, output string, prob map[string]float64) (float64, []WeightedPath, error) {
	for sig, p := range prob {
		if !(p >= 0 && p <= 1) {
			return 0, nil, fmt.Errorf("core: probability %v for input %q out of [0,1]", p, sig)
		}
		if !m.System().IsSystemInput(sig) {
			return 0, nil, fmt.Errorf("core: %q is not a system input of %s", sig, m.System().Name())
		}
	}
	tree, err := BacktrackTree(m, output)
	if err != nil {
		return 0, nil, err
	}
	var out []WeightedPath
	total := 0.0
	for _, p := range tree.Paths() {
		if p.LeafKind != KindTerminal {
			continue // feedback break-points have no external source
		}
		sp := prob[p.Leaf()]
		wp := WeightedPath{Path: p, SourceProb: sp, Adjusted: p.AdjustedWeight(sp)}
		total += wp.Adjusted
		out = append(out, wp)
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].Adjusted != out[b].Adjusted {
			return out[a].Adjusted > out[b].Adjusted
		}
		return out[a].Path.String() < out[b].Path.String()
	})
	return total, out, nil
}

// InputCriticality ranks system inputs by the total adjusted weight of
// the paths from each input to the given output, under uniform unit
// error probability: "which external data source threatens this
// output most". It is the per-input marginal of OutputErrorProfile.
func InputCriticality(m *Matrix, output string) ([]RankedSignal, error) {
	tree, err := BacktrackTree(m, output)
	if err != nil {
		return nil, err
	}
	sums := make(map[string]float64)
	for _, in := range m.System().SystemInputs() {
		sums[in] = 0
	}
	for _, p := range tree.Paths() {
		if p.LeafKind != KindTerminal {
			continue
		}
		sums[p.Leaf()] += p.Weight()
	}
	out := make([]RankedSignal, 0, len(sums))
	for sig, w := range sums {
		out = append(out, RankedSignal{Signal: sig, Score: w})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Signal < out[b].Signal
	})
	return out, nil
}
