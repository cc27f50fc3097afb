package core

import (
	"fmt"
	"sort"

	"propane/internal/model"
)

// Pair identifies one input/output pair of one module; the permeability
// value P^M_{i,k} of the paper's Eq. 1 is attached to a Pair. Indices
// are 1-based, matching the paper's numbering.
type Pair struct {
	Module string
	In     int
	Out    int
}

// String renders the pair in the paper's P^M_{i,k} notation.
func (p Pair) String() string {
	return fmt.Sprintf("P^%s_{%d,%d}", p.Module, p.In, p.Out)
}

// PairValue couples a pair with its permeability value and the signal
// names on both ports, for reporting.
type PairValue struct {
	Pair         Pair
	InputSignal  string
	OutputSignal string
	Value        float64
}

// Matrix holds one error-permeability value for every input/output
// pair of every module of a system. A fresh Matrix is zero-filled;
// values are assigned with Set (typically from the fault-injection
// estimates of internal/campaign, or by hand for analytic studies).
type Matrix struct {
	sys  *model.System
	vals map[Pair]float64
}

// NewMatrix returns a zero-filled permeability matrix for the system.
func NewMatrix(sys *model.System) *Matrix {
	m := &Matrix{sys: sys, vals: make(map[Pair]float64)}
	for _, mod := range sys.Modules() {
		for _, in := range mod.Inputs {
			for _, out := range mod.Outputs {
				m.vals[Pair{Module: mod.Name, In: in.Index, Out: out.Index}] = 0
			}
		}
	}
	return m
}

// System returns the system this matrix is bound to.
func (m *Matrix) System() *model.System { return m.sys }

// Len returns the number of input/output pairs (25 for the paper's
// target system).
func (m *Matrix) Len() int { return len(m.vals) }

// Set assigns the permeability value of the pair (in, out) of the
// named module. The value must lie in [0, 1] (Eq. 1) and the pair must
// exist in the system.
func (m *Matrix) Set(module string, in, out int, p float64) error {
	if !(p >= 0 && p <= 1) {
		return fmt.Errorf("core: permeability %v for %v out of range [0,1]", p, Pair{module, in, out})
	}
	key := Pair{Module: module, In: in, Out: out}
	if _, ok := m.vals[key]; !ok {
		return fmt.Errorf("core: system %s has no pair %v", m.sys.Name(), key)
	}
	m.vals[key] = p
	return nil
}

// SetBySignal assigns the permeability value of the pair identified by
// input and output signal names of the named module.
func (m *Matrix) SetBySignal(module, inSignal, outSignal string, p float64) error {
	mod, err := m.sys.Module(module)
	if err != nil {
		return err
	}
	in := mod.InputIndex(inSignal)
	if in == 0 {
		return fmt.Errorf("core: module %s has no input signal %q", module, inSignal)
	}
	out := mod.OutputIndex(outSignal)
	if out == 0 {
		return fmt.Errorf("core: module %s has no output signal %q", module, outSignal)
	}
	return m.Set(module, in, out, p)
}

// Value returns the permeability of the pair, or an error if the pair
// does not exist.
func (m *Matrix) Value(module string, in, out int) (float64, error) {
	v, ok := m.vals[Pair{Module: module, In: in, Out: out}]
	if !ok {
		return 0, fmt.Errorf("core: system %s has no pair %v", m.sys.Name(), Pair{module, in, out})
	}
	return v, nil
}

// at returns the permeability of a pair known to exist (internal use
// on pairs enumerated from the topology itself).
func (m *Matrix) at(p Pair) float64 { return m.vals[p] }

// Pairs returns every pair with its value and signal names, sorted by
// module (system insertion order), then input, then output index.
func (m *Matrix) Pairs() []PairValue {
	order := make(map[string]int)
	for i, name := range m.sys.ModuleNames() {
		order[name] = i
	}
	out := make([]PairValue, 0, len(m.vals))
	for _, mod := range m.sys.Modules() {
		for _, in := range mod.Inputs {
			for _, o := range mod.Outputs {
				p := Pair{Module: mod.Name, In: in.Index, Out: o.Index}
				out = append(out, PairValue{
					Pair:         p,
					InputSignal:  in.Signal,
					OutputSignal: o.Signal,
					Value:        m.vals[p],
				})
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		pa, pb := out[a].Pair, out[b].Pair
		if order[pa.Module] != order[pb.Module] {
			return order[pa.Module] < order[pb.Module]
		}
		if pa.In != pb.In {
			return pa.In < pb.In
		}
		return pa.Out < pb.Out
	})
	return out
}

// RelativePermeability computes P^M of Eq. 2: the pair permeabilities
// of the module averaged over its m·n pairs. It is an abstract measure
// used to obtain a relative ordering across modules, not an overall
// propagation probability.
func (m *Matrix) RelativePermeability(module string) (float64, error) {
	mod, err := m.sys.Module(module)
	if err != nil {
		return 0, err
	}
	n := mod.NumPairs()
	if n == 0 {
		return 0, fmt.Errorf("core: module %s has no input/output pairs", module)
	}
	sum, err := m.NonWeightedRelativePermeability(module)
	if err != nil {
		return 0, err
	}
	return sum / float64(n), nil
}

// NonWeightedRelativePermeability computes P̄^M of Eq. 3: the sum of
// the module's pair permeabilities, bounded by m·n. Removing the
// weighting factor "punishes" modules with many inputs and outputs,
// distinguishing hub modules from small ones.
func (m *Matrix) NonWeightedRelativePermeability(module string) (float64, error) {
	mod, err := m.sys.Module(module)
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, in := range mod.Inputs {
		for _, out := range mod.Outputs {
			sum += m.vals[Pair{Module: module, In: in.Index, Out: out.Index}]
		}
	}
	return sum, nil
}

// ModuleMeasures aggregates the four per-module measures of the
// paper's Table 2.
type ModuleMeasures struct {
	Module string
	// Relative is P^M (Eq. 2).
	Relative float64
	// NonWeighted is P̄^M (Eq. 3).
	NonWeighted float64
	// Exposure is X^M (Eq. 4); valid only when HasExposure is true.
	Exposure float64
	// NonWeightedExposure is X̄^M (Eq. 5); valid only when HasExposure
	// is true.
	NonWeightedExposure float64
	// HasExposure is false for modules whose inputs are all system
	// inputs (paper observation OB1: such modules have no incoming
	// arcs in the permeability graph).
	HasExposure bool
}

// AllModuleMeasures computes Table-2 style measures for every module,
// in system insertion order.
func (m *Matrix) AllModuleMeasures() ([]ModuleMeasures, error) {
	g, err := NewGraph(m)
	if err != nil {
		return nil, err
	}
	out := make([]ModuleMeasures, 0, len(m.sys.ModuleNames()))
	for _, name := range m.sys.ModuleNames() {
		rel, err := m.RelativePermeability(name)
		if err != nil {
			return nil, err
		}
		nw, err := m.NonWeightedRelativePermeability(name)
		if err != nil {
			return nil, err
		}
		mm := ModuleMeasures{Module: name, Relative: rel, NonWeighted: nw}
		if x, xb, ok := g.Exposure(name); ok {
			mm.Exposure, mm.NonWeightedExposure, mm.HasExposure = x, xb, true
		}
		out = append(out, mm)
	}
	return out, nil
}
