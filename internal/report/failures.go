package report

import (
	"fmt"
	"sort"
	"strings"
)

// FailureCase is one deduplicated propagation-failure equivalence
// class distilled from a campaign journal by the orchestration layer
// (internal/runner): deviating runs are fingerprinted by injection
// location, the set of module outputs the error escaped through, and
// a bucketed propagation latency, so repeated identical propagations
// don't bury novel ones in the artifact listing.
type FailureCase struct {
	// Fingerprint is the canonical class key.
	Fingerprint string
	// Kind is the failure mode: "deviation" (a Golden Run Comparison
	// mismatch, the default when empty), "crash" (target panic),
	// "hang" (watchdog termination) or "quarantined" (poison job the
	// supervisor abandoned).
	Kind string
	// Module and Signal locate the injection.
	Module, Signal string
	// Outputs are the deviating outputs of the injected module,
	// sorted.
	Outputs []string
	// LatencyBucketMs is the lower bound of the system-failure
	// latency bucket; -1 when the deviation never reached a system
	// output (contained).
	LatencyBucketMs int64
	// Count is how many runs fell into the class.
	Count int
	// Example describes the class's run with the lowest job index
	// (its injection and workload case), whatever order runs finished
	// in.
	Example string
}

// FailureTable renders the failure catalog, most frequent class
// first, as an aligned text table — the triage view of a campaign's
// journal.
func FailureTable(cases []FailureCase) string {
	sorted := make([]FailureCase, len(cases))
	copy(sorted, cases)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Count != sorted[j].Count {
			return sorted[i].Count > sorted[j].Count
		}
		return sorted[i].Fingerprint < sorted[j].Fingerprint
	})

	t := &textTable{header: []string{"count", "kind", "location", "escaped via", "latency", "example"}}
	total := 0
	for _, c := range sorted {
		total += c.Count
		kind := c.Kind
		if kind == "" {
			kind = "deviation"
		}
		latency := "contained"
		if kind != "deviation" {
			latency = "-"
		} else if c.LatencyBucketMs >= 0 {
			latency = fmt.Sprintf("%d ms+", c.LatencyBucketMs)
		}
		t.add(
			fmt.Sprintf("%d", c.Count),
			kind,
			fmt.Sprintf("%s@%s", c.Signal, c.Module),
			strings.Join(c.Outputs, ","),
			latency,
			c.Example,
		)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Failing runs: %d in %d equivalence classes\n\n", total, len(sorted))
	b.WriteString(t.String())
	return b.String()
}
