package trace

import (
	"reflect"
	"testing"

	"propane/internal/sim"
)

func TestTraceAppendAndAccess(t *testing.T) {
	tr := NewTrace([]string{"b", "a"})
	if got, want := tr.Signals(), []string{"a", "b"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Signals() = %v, want %v", got, want)
	}
	tr.Append(map[string]uint16{"a": 1, "b": 2})
	tr.Append(map[string]uint16{"a": 3}) // b missing: records 0
	if tr.Len() != 2 {
		t.Fatalf("Len() = %d, want 2", tr.Len())
	}
	sa, err := tr.Samples("a")
	if err != nil || !reflect.DeepEqual(sa, []uint16{1, 3}) {
		t.Errorf("Samples(a) = %v, %v", sa, err)
	}
	sb, err := tr.Samples("b")
	if err != nil || !reflect.DeepEqual(sb, []uint16{2, 0}) {
		t.Errorf("Samples(b) = %v, %v", sb, err)
	}
	if _, err := tr.Samples("z"); err == nil {
		t.Error("Samples(z) succeeded")
	}
	v, err := tr.At("a", 1)
	if err != nil || v != 3 {
		t.Errorf("At(a,1) = %d, %v", v, err)
	}
	if _, err := tr.At("a", 2); err == nil {
		t.Error("At(a,2) succeeded, want range error")
	}
	if _, err := tr.At("nope", 0); err == nil {
		t.Error("At(nope,0) succeeded")
	}
}

func TestEmptyTraceLen(t *testing.T) {
	if got := NewTrace(nil).Len(); got != 0 {
		t.Errorf("empty trace Len() = %d, want 0", got)
	}
}

func TestRecorder(t *testing.T) {
	bus := sim.NewBus()
	a := bus.Register("a")
	b := bus.Register("b")
	rec, err := NewRecorder(bus)
	if err != nil {
		t.Fatalf("NewRecorder: %v", err)
	}
	hook := rec.Hook()
	a.Write(10)
	b.Write(20)
	hook(0)
	a.Write(11)
	hook(1)
	tr := rec.Trace()
	if tr.Len() != 2 {
		t.Fatalf("recorded %d samples, want 2", tr.Len())
	}
	sa, _ := tr.Samples("a")
	sb, _ := tr.Samples("b")
	if !reflect.DeepEqual(sa, []uint16{10, 11}) || !reflect.DeepEqual(sb, []uint16{20, 20}) {
		t.Errorf("recorded a=%v b=%v", sa, sb)
	}
}

func makeTrace(vals map[string][]uint16) *Trace {
	var names []string
	for n := range vals {
		names = append(names, n)
	}
	tr := NewTrace(names)
	n := 0
	for _, s := range vals {
		n = len(s)
		break
	}
	for i := 0; i < n; i++ {
		snap := make(map[string]uint16)
		for sig, series := range vals {
			snap[sig] = series[i]
		}
		tr.Append(snap)
	}
	return tr
}

func TestCompare(t *testing.T) {
	golden := makeTrace(map[string][]uint16{
		"x": {1, 2, 3, 4, 5},
		"y": {0, 0, 0, 0, 0},
	})
	run := makeTrace(map[string][]uint16{
		"x": {1, 2, 9, 4, 9},
		"y": {0, 0, 0, 0, 0},
	})
	diffs, err := Compare(golden, run)
	if err != nil {
		t.Fatalf("Compare: %v", err)
	}
	dx := diffs["x"]
	if !dx.Differs() || dx.First != 2 || dx.Last != 4 || dx.Count != 2 {
		t.Errorf("diff x = %+v, want first=2 last=4 count=2", dx)
	}
	dy := diffs["y"]
	if dy.Differs() || dy.First != -1 || dy.Last != -1 {
		t.Errorf("diff y = %+v, want no differences", dy)
	}
}

func TestCompareErrors(t *testing.T) {
	a := makeTrace(map[string][]uint16{"x": {1, 2}})
	b := makeTrace(map[string][]uint16{"x": {1}})
	if _, err := Compare(a, b); err == nil {
		t.Error("Compare with length mismatch succeeded")
	}
	c := makeTrace(map[string][]uint16{"y": {1, 2}})
	if _, err := Compare(a, c); err == nil {
		t.Error("Compare with different signals succeeded")
	}
}

func TestStreamComparatorMatchesBatchCompare(t *testing.T) {
	// Drive a bus through a value sequence, recording and
	// stream-comparing simultaneously; the stream diffs must equal the
	// batch Compare result.
	golden := makeTrace(map[string][]uint16{
		"p": {5, 6, 7, 8},
		"q": {1, 1, 1, 1},
	})
	bus := sim.NewBus()
	p := bus.Register("p")
	q := bus.Register("q")
	sc, err := NewStreamComparator(golden, bus)
	if err != nil {
		t.Fatalf("NewStreamComparator: %v", err)
	}
	hook := sc.Hook()
	seqP := []uint16{5, 9, 7, 9}
	seqQ := []uint16{1, 1, 2, 1}
	for i := 0; i < 4; i++ {
		p.Write(seqP[i])
		q.Write(seqQ[i])
		hook(sim.Millis(i))
	}
	dp, err := sc.Diff("p")
	if err != nil {
		t.Fatal(err)
	}
	if dp.First != 1 || dp.Last != 3 || dp.Count != 2 {
		t.Errorf("stream diff p = %+v, want first=1 last=3 count=2", dp)
	}
	dq := sc.Diffs()["q"]
	if dq.First != 2 || dq.Count != 1 {
		t.Errorf("stream diff q = %+v, want first=2 count=1", dq)
	}
	if sc.Ticks() != 4 {
		t.Errorf("Ticks() = %d, want 4", sc.Ticks())
	}
	if _, err := sc.Diff("zz"); err == nil {
		t.Error("Diff(zz) succeeded")
	}
}

func TestStreamComparatorIgnoresOverrun(t *testing.T) {
	golden := makeTrace(map[string][]uint16{"p": {1}})
	bus := sim.NewBus()
	p := bus.Register("p")
	sc, err := NewStreamComparator(golden, bus)
	if err != nil {
		t.Fatal(err)
	}
	hook := sc.Hook()
	p.Write(1)
	hook(0)
	p.Write(99) // beyond golden length: ignored
	hook(1)
	if d := sc.Diffs()["p"]; d.Differs() {
		t.Errorf("overrun tick counted as diff: %+v", d)
	}
	if sc.Ticks() != 1 {
		t.Errorf("Ticks() = %d, want 1", sc.Ticks())
	}
}

// TestStreamComparatorLateRegistration: a signal registered after the
// comparator is bound inserts a bus column and shifts the others, so
// the comparator must stop with an error instead of attributing diffs
// to the wrong signals.
func TestStreamComparatorLateRegistration(t *testing.T) {
	golden := makeTrace(map[string][]uint16{"p": {5, 5}, "q": {7, 7}})
	bus := sim.NewBus()
	bus.Register("p").Write(5)
	bus.Register("q").Write(7)
	sc, err := AcquireStreamComparator(golden, bus)
	if err != nil {
		t.Fatal(err)
	}
	hook := sc.Hook()
	hook(0)
	if err := sc.Err(); err != nil {
		t.Fatalf("Err after a matching tick: %v", err)
	}
	bus.Register("a") // sorts first: p and q move one column right
	hook(1)
	if sc.Err() == nil {
		t.Fatal("late registration not reported")
	}
	if d := sc.DeviatingDiffs(); d != nil {
		t.Errorf("late registration produced diffs %v", d)
	}
	ReleaseStreamComparator(sc)
	// A recycled comparator starts clean.
	bus2 := sim.NewBus()
	bus2.Register("p")
	bus2.Register("q")
	sc2, err := AcquireStreamComparator(golden, bus2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc2.Err(); err != nil {
		t.Errorf("rebound comparator kept error %v", err)
	}
}

func TestStreamComparatorSignalSetMismatch(t *testing.T) {
	golden := makeTrace(map[string][]uint16{"p": {1}})
	bus := sim.NewBus()
	bus.Register("p")
	bus.Register("extra")
	if _, err := NewStreamComparator(golden, bus); err == nil {
		t.Error("NewStreamComparator with extra bus signal succeeded")
	}
	bus2 := sim.NewBus()
	bus2.Register("other")
	if _, err := NewStreamComparator(golden, bus2); err == nil {
		t.Error("NewStreamComparator with wrong signal name succeeded")
	}
}
