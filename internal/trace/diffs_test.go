package trace

import (
	"encoding/json"
	"reflect"
	"testing"
)

func TestDiffsGetAndDeviating(t *testing.T) {
	a := Diff{Signal: "a", First: 3, Last: 9, Count: 4}
	b := Diff{Signal: "b", First: -1, Last: -1}
	c := Diff{Signal: "c", First: 5, Last: 5, Count: 1}
	full := Diffs{a, b, c}
	for _, sig := range []string{"a", "b", "c"} {
		if d, ok := full.Get(sig); !ok || d.Signal != sig {
			t.Errorf("Get(%q) = %+v, %v", sig, d, ok)
		}
	}
	if d, ok := full.Get("bb"); ok {
		t.Errorf("Get of an absent signal = %+v", d)
	}
	if got := full.Deviating(); !reflect.DeepEqual(got, Diffs{a, c}) {
		t.Errorf("Deviating() = %+v, want a and c", got)
	}
	if sparse := (Diffs{a, c}); &sparse.Deviating()[0] != &sparse[0] {
		t.Error("Deviating copied a slice whose entries all deviate")
	}
	if got := (Diffs{b}).Deviating(); got != nil {
		t.Errorf("Deviating() of no deviation = %+v, want nil", got)
	}
	if !full.Ascending() || (Diffs{c, a}).Ascending() || (Diffs{a, a}).Ascending() {
		t.Error("Ascending accepts only strictly ascending signals")
	}
}

// TestDiffsJSONMatchesMap proves Diffs encodes exactly as the map
// keyed by signal it replaced, for names encoding/json must escape,
// and decodes that encoding back into ascending order.
func TestDiffsJSONMatchesMap(t *testing.T) {
	ds := Diffs{
		{Signal: "", First: 0, Last: 0, Count: 1},
		{Signal: "\"q\\", First: -1, Last: 7, Count: 2},
		{Signal: "a<b>&c", First: 1, Last: 2, Count: 3},
		{Signal: "plain", First: 4, Last: 1 << 40, Count: 5},
		{Signal: "tab\tdel\x7f", First: 6, Last: 6, Count: 1},
		{Signal: "é\u2028", First: 8, Last: 9, Count: 2},
	}
	m := make(map[string]Diff, len(ds))
	for _, d := range ds {
		m[d.Signal] = d
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ds)
	if err != nil || string(got) != string(want) {
		t.Fatalf("Diffs encode as\n%s (%v), the map as\n%s", got, err, want)
	}
	var back Diffs
	if err := json.Unmarshal(want, &back); err != nil || !reflect.DeepEqual(back, ds) {
		t.Errorf("decoded %+v (%v), want %+v", back, err, ds)
	}
	if err := json.Unmarshal([]byte("null"), &back); err != nil || back != nil {
		t.Errorf("null decodes to %+v (%v), want nil", back, err)
	}
}
