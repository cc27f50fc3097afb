package report

import (
	"fmt"
	"strings"

	"propane/internal/campaign"
)

// AdaptiveSection summarises the sequential sampler's spending for
// adaptive campaigns; empty when the campaign ran the full matrix.
func AdaptiveSection(res *campaign.Result) string {
	st := res.Adaptive
	if st == nil {
		return ""
	}
	var b strings.Builder
	saved := 0.0
	if st.FullRuns > 0 {
		saved = 100 * (1 - float64(st.Scheduled)/float64(st.FullRuns))
	}
	fmt.Fprintf(&b, "Sequential sampling closed every confidence interval at half-width ε = %.3g (per-quantity α = %.2g):\n",
		st.Epsilon, st.Alpha)
	fmt.Fprintf(&b, "scheduled %d of %d fireable runs (full matrix: %d — %.1f%% saved).\n",
		st.Scheduled, st.Population, st.FullRuns, saved)
	fmt.Fprintf(&b, "Locations: %d stopped early by the CI rule, %d sampled to exhaustion, %d degenerate (cannot fire).\n",
		st.StoppedEarly, st.Exhausted, st.Degenerate)
	return b.String()
}
