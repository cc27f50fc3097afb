package report

import (
	"fmt"
	"sort"
	"strings"

	"propane/internal/campaign"
	"propane/internal/core"
)

// MarkdownOptions selects the sections of the full Markdown report.
type MarkdownOptions struct {
	// Title heads the document; empty selects a default.
	Title string
	// Latency, Sensitivity, Criticality, Validation and Uniform toggle
	// the corresponding sections (the four paper tables, trees and
	// placement advice are always included).
	Latency, Sensitivity, Criticality, Validation, Uniform bool
}

// Markdown assembles the complete experiment report as a single
// Markdown document: campaign summary, Tables 1-4, backtrack trees,
// placement advice and the optional analysis sections, each rendered
// inside code fences so the monospaced tables survive any renderer.
func Markdown(res *campaign.Result, opts MarkdownOptions) (string, error) {
	var b strings.Builder
	title := opts.Title
	if title == "" {
		title = "Error-propagation analysis report"
	}
	fmt.Fprintf(&b, "# %s\n\n", title)

	sys := res.Topology
	fmt.Fprintf(&b, "System **%s**: %d modules, %d input/output pairs, inputs %v, outputs %v.\n\n",
		sys.Name(), len(sys.ModuleNames()), sys.TotalPairs(), sys.SystemInputs(), sys.SystemOutputs())
	fmt.Fprintf(&b, "Campaign: %d injection runs (%d traps never fired).\n\n", res.Runs, res.Unfired)
	if res.Crashes+res.Hangs+len(res.Quarantined) > 0 {
		fmt.Fprintf(&b, "Supervised failure modes: %d crashes, %d hangs, %d quarantined jobs — all excluded from every permeability denominator, so the estimates below cover only runs that completed.\n\n",
			res.Crashes, res.Hangs, len(res.Quarantined))
	}
	if len(res.Quarantined) > 0 {
		b.WriteString("### Quarantined jobs\n\nThe supervisor abandoned these jobs after repeated worker crashes; they are journaled (a resumed campaign will not re-execute them) but contribute to no estimate.\n\n```\n")
		qt := &textTable{header: []string{"injection", "case", "attempts", "reason"}}
		for _, q := range res.Quarantined {
			qt.add(q.Injection.String(), fmt.Sprintf("%d", q.CaseIndex), fmt.Sprintf("%d", q.Attempts), q.Reason)
		}
		b.WriteString(qt.String())
		b.WriteString("```\n\n")
	}
	if total := res.Pruning.Total(); total > 0 {
		fmt.Fprintf(&b, "### Pruning effectiveness\n\nEquivalence pruning resolved %d of %d runs without full simulation: %d no-op corruptions, %d provably unfired traps, %d memoized repeats (%d served by the persistent store), %d runs stopped early on reaching the golden or a sibling run's state (%d executed in full). Pruned runs carry complete outcomes and stay in every n_inj denominator — the estimates below are unaffected.\n\n```\n",
			total, total+res.Pruning.Executed, res.Pruning.NoOp, res.Pruning.Unfired,
			res.Pruning.Memoized+res.Pruning.Store, res.Pruning.Store, res.Pruning.Converged, res.Pruning.Executed)
		pt := &textTable{header: []string{"signal", "noop", "unfired", "memoized", "store", "converged", "executed"}}
		signals := make([]string, 0, len(res.Pruning.PerSignal))
		for sig := range res.Pruning.PerSignal {
			signals = append(signals, sig)
		}
		sort.Strings(signals)
		for _, sig := range signals {
			c := res.Pruning.PerSignal[sig]
			pt.add(sig, fmt.Sprintf("%d", c.NoOp), fmt.Sprintf("%d", c.Unfired),
				fmt.Sprintf("%d", c.Memoized), fmt.Sprintf("%d", c.Store),
				fmt.Sprintf("%d", c.Converged), fmt.Sprintf("%d", c.Executed))
		}
		b.WriteString(pt.String())
		b.WriteString("```\n\n")
	}

	section := func(heading, body string) {
		fmt.Fprintf(&b, "## %s\n\n```\n%s```\n\n", heading, body)
	}

	if adaptive := AdaptiveSection(res); adaptive != "" {
		fmt.Fprintf(&b, "### Adaptive sampling\n\n%s\n", adaptive)
	}

	section("Table 1 — error permeability per pair", Table1(res))
	t2, err := Table2(res.Matrix)
	if err != nil {
		return "", err
	}
	section("Table 2 — module measures", t2)
	t3, err := Table3(res.Matrix)
	if err != nil {
		return "", err
	}
	section("Table 3 — signal error exposure", t3)
	for _, out := range sys.SystemOutputs() {
		t4, err := Table4(res.Matrix, out, true)
		if err != nil {
			return "", err
		}
		section(fmt.Sprintf("Table 4 — propagation paths to %s", out), t4)
		tree, err := core.BacktrackTree(res.Matrix, out)
		if err != nil {
			return "", err
		}
		section(fmt.Sprintf("Backtrack tree of %s", out), TreeText(tree))
	}
	advice, err := AdviceReport(res.Matrix)
	if err != nil {
		return "", err
	}
	section("EDM/ERM placement advice", advice)
	fmeca, err := FMECATable(res.Matrix)
	if err != nil {
		return "", err
	}
	section("FMECA complement", fmeca)

	if opts.Latency {
		section("Propagation latency and classification", LatencyTable(res))
	}
	if opts.Sensitivity {
		for _, out := range sys.SystemOutputs() {
			s, err := SensitivityTable(res.Matrix, out)
			if err != nil {
				return "", err
			}
			section(fmt.Sprintf("Hardening priorities for %s", out), s)
		}
	}
	if opts.Criticality {
		for _, out := range sys.SystemOutputs() {
			s, err := CriticalityTable(res.Matrix, out)
			if err != nil {
				return "", err
			}
			section(fmt.Sprintf("Input criticality for %s", out), s)
		}
	}
	if opts.Validation {
		s, err := ValidationTable(res)
		if err != nil {
			return "", err
		}
		section("Cross-validation (prediction vs measurement)", s)
	}
	if opts.Uniform {
		section("Uniform-propagation check", UniformPropagationTable(res))
	}
	return b.String(), nil
}
