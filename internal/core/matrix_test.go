package core

import (
	"math"
	"testing"
	"testing/quick"

	"propane/internal/model"
)

// exampleMatrix returns the Fig. 2 example system with hand-assigned
// permeability values used throughout the core tests:
//
//	A(1,1)=0.8
//	B(1,1)=0.5 B(1,2)=0.6 B(2,1)=0.9 B(2,2)=0.3
//	C(1,1)=0.7  D(1,1)=0.4
//	E(1,1)=0.9 E(2,1)=0.5 E(3,1)=0.2
func exampleMatrix(t *testing.T) *Matrix {
	t.Helper()
	m := NewMatrix(model.PaperExampleSystem())
	assign := []struct {
		mod     string
		in, out int
		v       float64
	}{
		{"A", 1, 1, 0.8},
		{"B", 1, 1, 0.5}, {"B", 1, 2, 0.6}, {"B", 2, 1, 0.9}, {"B", 2, 2, 0.3},
		{"C", 1, 1, 0.7},
		{"D", 1, 1, 0.4},
		{"E", 1, 1, 0.9}, {"E", 2, 1, 0.5}, {"E", 3, 1, 0.2},
	}
	for _, a := range assign {
		if err := m.Set(a.mod, a.in, a.out, a.v); err != nil {
			t.Fatalf("Set(%s,%d,%d,%v): %v", a.mod, a.in, a.out, a.v, err)
		}
	}
	return m
}

func almostEqual(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestNewMatrixZeroFilled(t *testing.T) {
	m := NewMatrix(model.PaperExampleSystem())
	if got, want := m.Len(), 10; got != want {
		t.Fatalf("Len() = %d, want %d", got, want)
	}
	for _, pv := range m.Pairs() {
		if pv.Value != 0 {
			t.Errorf("fresh matrix pair %v = %v, want 0", pv.Pair, pv.Value)
		}
	}
}

func TestMatrixSetValidation(t *testing.T) {
	m := NewMatrix(model.PaperExampleSystem())
	tests := []struct {
		name    string
		mod     string
		in, out int
		v       float64
		wantErr bool
	}{
		{"valid", "B", 1, 2, 0.5, false},
		{"boundary zero", "B", 1, 1, 0, false},
		{"boundary one", "B", 2, 2, 1, false},
		{"negative", "B", 1, 1, -0.1, true},
		{"above one", "B", 1, 1, 1.1, true},
		{"NaN", "B", 1, 1, math.NaN(), true},
		{"unknown module", "Z", 1, 1, 0.5, true},
		{"unknown input", "A", 2, 1, 0.5, true},
		{"unknown output", "A", 1, 2, 0.5, true},
		{"zero index", "A", 0, 1, 0.5, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := m.Set(tt.mod, tt.in, tt.out, tt.v)
			if (err != nil) != tt.wantErr {
				t.Errorf("Set() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestMatrixSetBySignal(t *testing.T) {
	m := NewMatrix(model.PaperExampleSystem())
	if err := m.SetBySignal("B", "a1", "b2", 0.42); err != nil {
		t.Fatalf("SetBySignal: %v", err)
	}
	v, err := m.Value("B", 1, 2)
	if err != nil || !almostEqual(v, 0.42) {
		t.Errorf("Value(B,1,2) = %v, %v; want 0.42", v, err)
	}
	if err := m.SetBySignal("B", "nope", "b2", 0.1); err == nil {
		t.Error("SetBySignal with unknown input signal succeeded")
	}
	if err := m.SetBySignal("B", "a1", "nope", 0.1); err == nil {
		t.Error("SetBySignal with unknown output signal succeeded")
	}
	if err := m.SetBySignal("Z", "a1", "b2", 0.1); err == nil {
		t.Error("SetBySignal with unknown module succeeded")
	}
}

func TestMatrixValueErrors(t *testing.T) {
	m := exampleMatrix(t)
	if _, err := m.Value("A", 1, 9); err == nil {
		t.Error("Value on nonexistent pair succeeded")
	}
	v, err := m.Value("B", 2, 1)
	if err != nil || !almostEqual(v, 0.9) {
		t.Errorf("Value(B,2,1) = %v, %v; want 0.9", v, err)
	}
}

func TestRelativePermeability(t *testing.T) {
	m := exampleMatrix(t)
	tests := []struct {
		module          string
		wantRel, wantNW float64
	}{
		{"A", 0.8, 0.8},
		{"B", 2.3 / 4, 2.3},
		{"C", 0.7, 0.7},
		{"D", 0.4, 0.4},
		{"E", 1.6 / 3, 1.6},
	}
	for _, tt := range tests {
		t.Run(tt.module, func(t *testing.T) {
			rel, err := m.RelativePermeability(tt.module)
			if err != nil {
				t.Fatalf("RelativePermeability: %v", err)
			}
			if !almostEqual(rel, tt.wantRel) {
				t.Errorf("P^%s = %v, want %v", tt.module, rel, tt.wantRel)
			}
			nw, err := m.NonWeightedRelativePermeability(tt.module)
			if err != nil {
				t.Fatalf("NonWeightedRelativePermeability: %v", err)
			}
			if !almostEqual(nw, tt.wantNW) {
				t.Errorf("P̄^%s = %v, want %v", tt.module, nw, tt.wantNW)
			}
		})
	}
	if _, err := m.RelativePermeability("Z"); err == nil {
		t.Error("RelativePermeability(Z) succeeded, want error")
	}
	if _, err := m.NonWeightedRelativePermeability("Z"); err == nil {
		t.Error("NonWeightedRelativePermeability(Z) succeeded, want error")
	}
}

func TestPairsOrderingAndSignals(t *testing.T) {
	m := exampleMatrix(t)
	pairs := m.Pairs()
	if len(pairs) != 10 {
		t.Fatalf("len(Pairs()) = %d, want 10", len(pairs))
	}
	// First pair: module A (insertion order), input 1, output 1.
	first := pairs[0]
	if first.Pair != (Pair{Module: "A", In: 1, Out: 1}) {
		t.Errorf("first pair = %v, want A(1,1)", first.Pair)
	}
	if first.InputSignal != "extA" || first.OutputSignal != "a1" {
		t.Errorf("first pair signals = %s->%s, want extA->a1", first.InputSignal, first.OutputSignal)
	}
	// B pairs come next, ordered (1,1),(1,2),(2,1),(2,2).
	wantB := []Pair{{"B", 1, 1}, {"B", 1, 2}, {"B", 2, 1}, {"B", 2, 2}}
	for i, w := range wantB {
		if pairs[1+i].Pair != w {
			t.Errorf("pair[%d] = %v, want %v", 1+i, pairs[1+i].Pair, w)
		}
	}
}

func TestPairString(t *testing.T) {
	p := Pair{Module: "CALC", In: 2, Out: 1}
	if got, want := p.String(), "P^CALC_{2,1}"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestAllModuleMeasures(t *testing.T) {
	m := exampleMatrix(t)
	ms, err := m.AllModuleMeasures()
	if err != nil {
		t.Fatalf("AllModuleMeasures: %v", err)
	}
	byName := make(map[string]ModuleMeasures)
	for _, mm := range ms {
		byName[mm.Module] = mm
	}
	// A and C receive only system inputs: no exposure (OB1).
	for _, name := range []string{"A", "C"} {
		if byName[name].HasExposure {
			t.Errorf("module %s has exposure, want none (only system inputs)", name)
		}
	}
	b := byName["B"]
	if !b.HasExposure {
		t.Fatal("module B has no exposure, want some")
	}
	// Incoming arcs of B: A(1,1)=0.8 via a1; B(1,1)=0.5 and B(2,1)=0.9
	// via the bfb feedback. X̄ = 2.2, X = 2.2/3.
	if !almostEqual(b.NonWeightedExposure, 2.2) {
		t.Errorf("X̄^B = %v, want 2.2", b.NonWeightedExposure)
	}
	if !almostEqual(b.Exposure, 2.2/3) {
		t.Errorf("X^B = %v, want %v", b.Exposure, 2.2/3)
	}
	e := byName["E"]
	if !almostEqual(e.NonWeightedExposure, 1.3) {
		t.Errorf("X̄^E = %v, want 1.3", e.NonWeightedExposure)
	}
	if !almostEqual(e.Exposure, 1.3/3) {
		t.Errorf("X^E = %v, want %v", e.Exposure, 1.3/3)
	}
	d := byName["D"]
	if !almostEqual(d.NonWeightedExposure, 0.7) || !almostEqual(d.Exposure, 0.7) {
		t.Errorf("X^D/X̄^D = %v/%v, want 0.7/0.7", d.Exposure, d.NonWeightedExposure)
	}
}

// TestRelativePermeabilityBounds is a property-based check of the
// Eq. 2 and Eq. 3 bounds: for arbitrary in-range pair values,
// 0 <= P^M <= 1 and 0 <= P̄^M <= m·n.
func TestRelativePermeabilityBounds(t *testing.T) {
	sys := model.PaperExampleSystem()
	prop := func(raw []float64) bool {
		m := NewMatrix(sys)
		i := 0
		for _, pv := range m.Pairs() {
			if i >= len(raw) {
				break
			}
			v := math.Abs(raw[i])
			v -= math.Floor(v) // fold into [0,1)
			if err := m.Set(pv.Pair.Module, pv.Pair.In, pv.Pair.Out, v); err != nil {
				return false
			}
			i++
		}
		for _, mod := range sys.Modules() {
			rel, err := m.RelativePermeability(mod.Name)
			if err != nil || rel < 0 || rel > 1 {
				return false
			}
			nw, err := m.NonWeightedRelativePermeability(mod.Name)
			if err != nil || nw < 0 || nw > float64(mod.NumPairs()) {
				return false
			}
			// Eq. 2 and Eq. 3 are related by the m·n weighting factor.
			if !almostEqual(rel*float64(mod.NumPairs()), nw) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
