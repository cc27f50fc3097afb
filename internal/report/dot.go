package report

import (
	"fmt"
	"strconv"
	"strings"

	"propane/internal/core"
	"propane/internal/model"
)

// TopologyDOT renders the module/signal topology (the paper's Fig. 2
// or Fig. 8) as a Graphviz digraph: one node per module, one labelled
// edge per signal connection, diamond nodes for system inputs and
// outputs.
func TopologyDOT(sys *model.System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=box];\n", sys.Name())
	for _, in := range sys.SystemInputs() {
		fmt.Fprintf(&b, "  %q [shape=diamond];\n", "in:"+in)
	}
	for _, out := range sys.SystemOutputs() {
		fmt.Fprintf(&b, "  %q [shape=diamond];\n", "out:"+out)
	}
	for _, mod := range sys.Modules() {
		for _, in := range mod.Inputs {
			if drv, driven := sys.Driver(in.Signal); driven {
				fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", drv.Module, mod.Name, in.Signal)
			} else {
				fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", "in:"+in.Signal, mod.Name, in.Signal)
			}
		}
	}
	for _, out := range sys.SystemOutputs() {
		if drv, driven := sys.Driver(out); driven {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", drv.Module, "out:"+out, out)
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// PermeabilityGraphDOT renders the permeability graph (the paper's
// Figs. 3 and 9): one node per module and one weighted arc per
// input/output pair of the driving module, labelled with the pair and
// its permeability value. Zero-weight arcs are drawn dashed (the
// paper omits them; keeping them dashed makes the structure visible).
func PermeabilityGraphDOT(g *core.Graph) string {
	sys := g.Matrix().System()
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=LR;\n  node [shape=ellipse];\n", sys.Name()+"-permeability")
	for _, arc := range g.Arcs() {
		style := ""
		if arc.Weight == 0 {
			style = ", style=dashed"
		}
		fmt.Fprintf(&b, "  %q -> %q [label=\"%s=%.3f\"%s];\n",
			arc.From, arc.To, arc.Pair.String(), arc.Weight, style)
	}
	b.WriteString("}\n")
	return b.String()
}

// TreeDOT renders a backtrack or trace tree (the paper's Figs. 4, 5,
// 10, 11, 12). Feedback leaves are connected with the paper's "double
// line" notation, approximated by a bold red edge.
func TreeDOT(t *core.Tree, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  node [shape=plaintext];\n", name)
	id := 0
	var emit func(n *core.Node) int
	emit = func(n *core.Node) int {
		my := id
		id++
		label := n.Signal
		switch n.Kind {
		case core.KindRoot:
			label += " (root)"
		case core.KindTerminal:
			label += " (leaf)"
		case core.KindFeedback:
			label += " (feedback)"
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", my, label)
		for _, c := range n.Children {
			child := emit(c)
			attrs := fmt.Sprintf("label=\"%s=%.3f\"", c.Pair.String(), c.Weight)
			if c.Kind == core.KindFeedback {
				attrs += ", color=red, penwidth=2"
			}
			fmt.Fprintf(&b, "  n%d -> n%d [%s];\n", my, child, attrs)
		}
		return my
	}
	emit(t.Root)
	b.WriteString("}\n")
	return b.String()
}

// MatrixCSV renders every pair permeability as CSV
// (module,in,out,input_signal,output_signal,value). Each value is the
// shortest decimal that parses back to the same float64, so the CSV
// round-trips exactly.
func MatrixCSV(m *core.Matrix) string {
	var b strings.Builder
	b.WriteString("module,in,out,input_signal,output_signal,value\n")
	for _, pv := range m.Pairs() {
		fmt.Fprintf(&b, "%s,%d,%d,%s,%s,%s\n", pv.Pair.Module, pv.Pair.In, pv.Pair.Out,
			pv.InputSignal, pv.OutputSignal, strconv.FormatFloat(pv.Value, 'g', -1, 64))
	}
	return b.String()
}

// ExposureCSV renders the signal exposures as CSV (signal,exposure).
func ExposureCSV(m *core.Matrix) (string, error) {
	exposures, err := core.SignalExposures(m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("signal,exposure,arcs\n")
	for _, se := range exposures {
		fmt.Fprintf(&b, "%s,%.6f,%d\n", se.Signal, se.Exposure, se.Arcs)
	}
	return b.String(), nil
}

// PathsCSV renders the ranked backtrack paths of a system output as
// CSV (rank,weight,leaf,path).
func PathsCSV(m *core.Matrix, output string) (string, error) {
	tree, err := core.BacktrackTree(m, output)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("rank,weight,leaf,path\n")
	for i, p := range tree.RankedPaths() {
		fmt.Fprintf(&b, "%d,%.6f,%s,%q\n", i+1, p.Weight(), p.Leaf(), p.String())
	}
	return b.String(), nil
}
