package trace

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"propane/internal/sim"
)

// spliceRun is one random golden/run trace pair over the signals a..e
// with three marks. Each column has its own deviation pattern: a
// never deviates, b only before the first mark, c only from the last
// mark on, d on both sides of every mark, and e only within its
// tolerance band before the middle mark and beyond it after.
type spliceRun struct {
	golden, run *Trace
	rows        [][]uint16 // run rows, column order
	marks       []int
	tol         Tolerances
}

func newSpliceRun(rng *rand.Rand, length int) spliceRun {
	names := []string{"a", "b", "c", "d", "e"}
	golden, run := NewTrace(names), NewTrace(names)
	m := []int{1 + rng.Intn(length/3), length/3 + rng.Intn(length/3), 2*length/3 + rng.Intn(length/3)}
	sr := spliceRun{golden: golden, run: run, marks: m, tol: Tolerances{"e": 3}}
	deviates := func(col, t int) bool {
		p := rng.Intn(4) == 0
		switch names[col] {
		case "b":
			return p && t < m[0]
		case "c":
			return p && t >= m[2]
		case "d", "e":
			return p
		}
		return false
	}
	for t := 0; t < length; t++ {
		g, r := map[string]uint16{}, map[string]uint16{}
		row := make([]uint16, len(names))
		for col, n := range names {
			v := uint16(rng.Intn(1 << 16))
			g[n], r[n] = v, v
			if deviates(col, t) {
				switch {
				case n != "e":
					r[n] = v ^ uint16(1+rng.Intn(0xFFFF))
				case t < m[1]:
					r[n] = v + uint16(1+rng.Intn(3)) // inside the band
				default:
					r[n] = v + uint16(4+rng.Intn(100)) // outside it
				}
			}
			row[col] = r[n]
		}
		golden.Append(g)
		run.Append(r)
		sr.rows = append(sr.rows, row)
	}
	return sr
}

// compareTicks drives a fresh comparator over the run's ticks
// [0, until), marking at every mark tick it passes.
func (sr spliceRun) compareTicks(t *testing.T, until int) (*StreamComparator, []int) {
	t.Helper()
	bus := sim.NewBus()
	sigs := make([]*sim.Signal, len(sr.rows[0]))
	for col, n := range sr.golden.Signals() {
		sigs[col] = bus.Register(n)
	}
	c, err := NewStreamComparator(sr.golden, bus)
	if err != nil {
		t.Fatal(err)
	}
	c.SetTolerances(sr.tol)
	hook := c.Hook()
	var ids []int
	for tick := 0; tick < until; tick++ {
		for _, m := range sr.marks {
			if m == tick {
				ids = append(ids, c.Mark())
			}
		}
		for col, s := range sigs {
			s.Write(sr.rows[tick][col])
		}
		hook(sim.Millis(tick))
	}
	return c, ids
}

// TestTraceSpliceEqualsFullCompare: a comparison that stops at a mark
// and splices the suffix another comparator saw from that mark equals
// the batch comparison of the whole run, for every mark, with columns
// deviating only before the mark, only after it, on both sides, and
// within and beyond a tolerance band. A spliced comparator's own
// earlier marks report the same suffixes as the full one's.
func TestTraceSpliceEqualsFullCompare(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		sr := newSpliceRun(rng, 30+rng.Intn(300))
		want, err := CompareTol(sr.golden, sr.run, sr.tol)
		if err != nil {
			t.Fatal(err)
		}
		full, ids := sr.compareTicks(t, sr.golden.Len())
		if got := full.Diffs(); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: marked comparator diffs %v, want %v", trial, got, want)
		}
		for k, m := range sr.marks {
			part, partIDs := sr.compareTicks(t, m)
			if err := part.Splice(full.SuffixSince(ids[k])); err != nil {
				t.Fatalf("trial %d mark %d: %v", trial, k, err)
			}
			if got := part.Diffs(); !reflect.DeepEqual(got, want) {
				t.Errorf("trial %d: prefix to tick %d spliced with its suffix = %v, want %v", trial, m, got, want)
			}
			for j, id := range partIDs {
				if got, want := part.SuffixSince(id), full.SuffixSince(ids[j]); !reflect.DeepEqual(got, want) {
					t.Errorf("trial %d: after splicing at tick %d, suffix since tick %d = %+v, want %+v", trial, m, sr.marks[j], got, want)
				}
			}
		}
	}
}

// TestTraceSpliceRejectsMisplacedSuffix: a suffix continues a
// comparison only at the tick it was taken from, and only one over as
// many columns.
func TestTraceSpliceRejectsMisplacedSuffix(t *testing.T) {
	sr := newSpliceRun(rand.New(rand.NewSource(2)), 60)
	full, ids := sr.compareTicks(t, sr.golden.Len())
	part, _ := sr.compareTicks(t, sr.marks[0]+1)
	if err := part.Splice(full.SuffixSince(ids[0])); err == nil {
		t.Error("spliced a suffix one tick after its mark")
	}
	other := Suffix{from: sr.marks[0], width: 9, cols: []suffixCol{{col: 8, count: 1}}}
	part, _ = sr.compareTicks(t, sr.marks[0])
	if err := part.Splice(other); err == nil {
		t.Error("spliced a suffix over another column count")
	}
}

// TestTraceSuffixSinceIntoReusesBuffer: SuffixSinceInto reports what
// SuffixSince does, in dst's column buffer when it is large enough,
// allocating nothing then.
func TestTraceSuffixSinceIntoReusesBuffer(t *testing.T) {
	sr := newSpliceRun(rand.New(rand.NewSource(3)), 120)
	full, ids := sr.compareTicks(t, sr.golden.Len())
	buf := Suffix{cols: make([]suffixCol, 0, len(sr.golden.Signals()))}
	for k, id := range ids {
		want := full.SuffixSince(id)
		got := full.SuffixSinceInto(buf, id)
		if got.from != want.from || got.width != want.width || !slices.Equal(got.cols, want.cols) {
			t.Errorf("mark %d: SuffixSinceInto = %+v, want %+v", k, got, want)
		}
		if &got.cols[:1][0] != &buf.cols[:1][0] {
			t.Errorf("mark %d: SuffixSinceInto did not fill dst's buffer", k)
		}
		buf = got
	}
	if allocs := testing.AllocsPerRun(10, func() { buf = full.SuffixSinceInto(buf, ids[0]) }); allocs != 0 {
		t.Errorf("SuffixSinceInto into a large enough buffer allocates %v times, want 0", allocs)
	}
}
