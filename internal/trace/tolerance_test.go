package trace

import (
	"testing"

	"propane/internal/sim"
)

func TestTolerancesWithin(t *testing.T) {
	tol := Tolerances{"p": 5}
	tests := []struct {
		sig  string
		a, b uint16
		want bool
	}{
		{"p", 100, 100, true},
		{"p", 100, 105, true},
		{"p", 105, 100, true},
		{"p", 100, 106, false},
		{"q", 100, 101, false}, // no entry: exact comparison
		{"q", 7, 7, true},
		// Wrap-around distances stay conservative: 0 vs 65535 is a
		// "difference" of 1 in modular arithmetic.
		{"p", 0, 0xFFFF, true},
		{"p", 0, 0xFFF0, false},
	}
	for _, tt := range tests {
		if got := withinBand(tol[tt.sig], tt.a, tt.b); got != tt.want {
			t.Errorf("withinBand(tol[%s], %d, %d) = %v, want %v", tt.sig, tt.a, tt.b, got, tt.want)
		}
	}
	// nil Tolerances behaves exactly.
	var none Tolerances
	if withinBand(none["p"], 1, 2) {
		t.Error("nil tolerances accepted a deviation")
	}
	if !withinBand(none["p"], 3, 3) {
		t.Error("nil tolerances rejected equality")
	}
}

func TestCompareTol(t *testing.T) {
	golden := makeTrace(map[string][]uint16{"x": {100, 200, 300}})
	run := makeTrace(map[string][]uint16{"x": {102, 200, 330}})
	exact, err := Compare(golden, run)
	if err != nil {
		t.Fatal(err)
	}
	if exact["x"].Count != 2 {
		t.Errorf("exact diff count = %d, want 2", exact["x"].Count)
	}
	loose, err := CompareTol(golden, run, Tolerances{"x": 10})
	if err != nil {
		t.Fatal(err)
	}
	if loose["x"].Count != 1 || loose["x"].First != 2 {
		t.Errorf("tolerant diff = %+v, want only the 330 sample", loose["x"])
	}
	all, err := CompareTol(golden, run, Tolerances{"x": 50})
	if err != nil {
		t.Fatal(err)
	}
	if all["x"].Differs() {
		t.Errorf("wide tolerance still flagged: %+v", all["x"])
	}
}

func TestStreamComparatorTolerances(t *testing.T) {
	golden := makeTrace(map[string][]uint16{"p": {10, 20, 30}})
	bus := sim.NewBus()
	p := bus.Register("p")
	sc, err := NewStreamComparator(golden, bus)
	if err != nil {
		t.Fatal(err)
	}
	sc.SetTolerances(Tolerances{"p": 3})
	hook := sc.Hook()
	for i, v := range []uint16{12, 26, 30} { // +2 ok, +6 flagged, exact ok
		p.Write(v)
		hook(sim.Millis(i))
	}
	d := sc.Diffs()["p"]
	if d.Count != 1 || d.First != 1 {
		t.Errorf("tolerant stream diff = %+v, want single deviation at t=1", d)
	}
}
