package core

import (
	"math"
	"testing"

	"propane/internal/model"
)

func sensitivityMap(t *testing.T, m *Matrix, output string) map[Pair]PairSensitivity {
	t.Helper()
	list, err := PathSensitivities(m, output)
	if err != nil {
		t.Fatalf("PathSensitivities: %v", err)
	}
	out := make(map[Pair]PairSensitivity, len(list))
	for _, ps := range list {
		out[ps.Pair] = ps
	}
	return out
}

func TestPathSensitivitiesHandComputed(t *testing.T) {
	m := exampleMatrix(t)
	s := sensitivityMap(t, m, "sysout")

	// E(3,1) (extE -> sysout) lies on one single-edge path; the
	// product of the other weights is the empty product 1.
	if got := s[Pair{"E", 3, 1}]; !almostEqual(got.Sensitivity, 1) || got.PathCount != 1 {
		t.Errorf("sens E(3,1) = %+v, want 1.0 over 1 path", got)
	}

	// C(1,1) lies on the chain extC -> c1 -> d1 -> sysout:
	// sensitivity = P^D(1,1)·P^E(2,1) = 0.4·0.5.
	if got := s[Pair{"C", 1, 1}]; !almostEqual(got.Sensitivity, 0.2) || got.PathCount != 1 {
		t.Errorf("sens C(1,1) = %+v, want 0.2 over 1 path", got)
	}

	// E(1,1) (b2 -> sysout) lies on all three b2-branch paths:
	//   0.6·0.8 + 0.3·0.5·0.8 + 0.3·0.9 = 0.48 + 0.12 + 0.27 = 0.87.
	if got := s[Pair{"E", 1, 1}]; !almostEqual(got.Sensitivity, 0.87) || got.PathCount != 3 {
		t.Errorf("sens E(1,1) = %+v, want 0.87 over 3 paths", got)
	}

	// A(1,1) lies on two paths: 0.9·0.6 + 0.9·0.3·0.5 = 0.675.
	if got := s[Pair{"A", 1, 1}]; !almostEqual(got.Sensitivity, 0.675) || got.PathCount != 2 {
		t.Errorf("sens A(1,1) = %+v, want 0.675 over 2 paths", got)
	}
}

func TestPathSensitivitiesZeroWeightPairStillRanked(t *testing.T) {
	// Even a pair with zero current permeability has a meaningful
	// sensitivity (the exposure it would create if it opened up).
	m := exampleMatrix(t)
	if err := m.Set("C", 1, 1, 0); err != nil {
		t.Fatal(err)
	}
	s := sensitivityMap(t, m, "sysout")
	if got := s[Pair{"C", 1, 1}]; !almostEqual(got.Sensitivity, 0.2) {
		t.Errorf("zeroed pair sensitivity = %v, want 0.2", got.Sensitivity)
	}
}

func TestPathSensitivitiesSorted(t *testing.T) {
	m := exampleMatrix(t)
	list, err := PathSensitivities(m, "sysout")
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 10 {
		t.Fatalf("got %d sensitivities, want all 10 pairs", len(list))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].Sensitivity < list[i].Sensitivity {
			t.Errorf("sensitivities out of order at %d", i)
		}
	}
	// Pairs not on any path to sysout have zero sensitivity... in this
	// topology every pair reaches sysout, so the tail is non-zero.
	if list[len(list)-1].Sensitivity <= 0 {
		t.Errorf("unexpected zero tail: %+v", list[len(list)-1])
	}
}

func TestPathSensitivitiesErrors(t *testing.T) {
	m := exampleMatrix(t)
	if _, err := PathSensitivities(m, "extA"); err == nil {
		t.Error("PathSensitivities on non-output succeeded")
	}
}

// TestSensitivityPredictsWeightChange: nudging one pair's permeability
// changes the total path weight by sensitivity × delta (linearity in
// each coordinate).
func TestSensitivityPredictsWeightChange(t *testing.T) {
	m := exampleMatrix(t)
	total := func(m *Matrix) float64 {
		tree, err := BacktrackTree(m, "sysout")
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range tree.Paths() {
			sum += p.Weight()
		}
		return sum
	}
	s := sensitivityMap(t, m, "sysout")
	base := total(m)
	const delta = 0.05
	target := Pair{"B", 1, 2}
	v, err := m.Value("B", 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Set("B", 1, 2, v+delta); err != nil {
		t.Fatal(err)
	}
	got := total(m) - base
	want := s[target].Sensitivity * delta
	if !almostEqual(got, want) {
		t.Errorf("weight change = %v, sensitivity predicts %v", got, want)
	}
}

func TestOutputErrorProfile(t *testing.T) {
	m := exampleMatrix(t)
	prob := map[string]float64{"extA": 0.5, "extC": 0.1, "extE": 1.0}
	total, paths, err := OutputErrorProfile(m, "sysout", prob)
	if err != nil {
		t.Fatalf("OutputErrorProfile: %v", err)
	}
	// Terminal paths: extA direct (0.432·0.5), extA via bfb (0.108·0.5),
	// extC (0.14·0.1), extE (0.2·1.0). Feedback path excluded.
	if len(paths) != 4 {
		t.Fatalf("weighted paths = %d, want 4 (feedback excluded)", len(paths))
	}
	want := 0.432*0.5 + 0.108*0.5 + 0.14*0.1 + 0.2
	if !almostEqual(total, want) {
		t.Errorf("total = %v, want %v", total, want)
	}
	// Sorted by adjusted weight descending; top is the direct extA path.
	if !almostEqual(paths[0].Adjusted, 0.216) {
		t.Errorf("top adjusted = %v, want 0.216", paths[0].Adjusted)
	}
	// Unknown inputs default to probability zero.
	total0, _, err := OutputErrorProfile(m, "sysout", nil)
	if err != nil || !almostEqual(total0, 0) {
		t.Errorf("profile with no probabilities = %v, %v; want 0", total0, err)
	}
}

func TestOutputErrorProfileValidation(t *testing.T) {
	m := exampleMatrix(t)
	if _, _, err := OutputErrorProfile(m, "sysout", map[string]float64{"extA": 1.5}); err == nil {
		t.Error("profile with probability > 1 succeeded")
	}
	if _, _, err := OutputErrorProfile(m, "sysout", map[string]float64{"extA": math.NaN()}); err == nil {
		t.Error("profile with probability NaN succeeded")
	}
	if _, _, err := OutputErrorProfile(m, "sysout", map[string]float64{"a1": 0.5}); err == nil {
		t.Error("profile with non-input signal succeeded")
	}
	if _, _, err := OutputErrorProfile(m, "b2", nil); err == nil {
		t.Error("profile on non-output succeeded")
	}
}

func TestInputCriticality(t *testing.T) {
	m := exampleMatrix(t)
	ranked, err := InputCriticality(m, "sysout")
	if err != nil {
		t.Fatalf("InputCriticality: %v", err)
	}
	if len(ranked) != 3 {
		t.Fatalf("ranked inputs = %d, want 3", len(ranked))
	}
	// extA: 0.432+0.108 = 0.54; extE: 0.2; extC: 0.14.
	if ranked[0].Signal != "extA" || !almostEqual(ranked[0].Score, 0.54) {
		t.Errorf("top input = %+v, want extA/0.54", ranked[0])
	}
	if ranked[1].Signal != "extE" || ranked[2].Signal != "extC" {
		t.Errorf("ranking = %v, want extE then extC", ranked)
	}
	if _, err := InputCriticality(m, "nope"); err == nil {
		t.Error("InputCriticality on non-output succeeded")
	}
}

// TestInputCriticalityIsolatedInput: an input with no path to the
// output ranks last with zero score.
func TestInputCriticalityIsolatedInput(t *testing.T) {
	sys, err := model.NewBuilder("split").
		AddModule("M", []string{"in1"}, []string{"out1"}).
		AddModule("N", []string{"in2"}, []string{"out2"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	m := NewMatrix(sys)
	if err := m.Set("M", 1, 1, 0.9); err != nil {
		t.Fatal(err)
	}
	ranked, err := InputCriticality(m, "out1")
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 || ranked[0].Signal != "in1" || ranked[1].Score != 0 {
		t.Errorf("ranking = %v, want in1 first, in2 zero", ranked)
	}
}
