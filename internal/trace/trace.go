// Package trace implements signal tracing and Golden Run Comparison
// (GRC) as in the paper's Section 6: a Golden Run is a trace of the
// system executing without injections; every injection-run trace is
// compared against it, and any difference indicates an error. Traces
// have millisecond resolution for every logged variable (Section 7.3).
package trace

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"propane/internal/sim"
)

// Trace is a millisecond-resolution record of a set of signals. Sample
// t of each signal is the value at the end of simulation tick t. The
// samples are stored by tick: row t holds one value per signal, in
// the sorted signal order that is also a sim.Bus's column order, so a
// tick is recorded with one copy and compared with one slice compare.
type Trace struct {
	signals []string
	rows    []uint16 // row t is rows[t*len(signals) : (t+1)*len(signals)]
}

// NewTrace creates an empty trace for the given signal names.
func NewTrace(signals []string) *Trace {
	names := slices.Clone(signals)
	slices.Sort(names)
	return &Trace{signals: names}
}

// Signals returns the traced signal names, sorted.
func (t *Trace) Signals() []string {
	return slices.Clone(t.signals)
}

// Len returns the number of samples recorded per signal.
func (t *Trace) Len() int {
	if len(t.signals) == 0 {
		return 0
	}
	return len(t.rows) / len(t.signals)
}

// column returns a signal's position within a row.
func (t *Trace) column(signal string) (int, error) {
	c, ok := slices.BinarySearch(t.signals, signal)
	if !ok {
		return 0, fmt.Errorf("trace: no signal %q", signal)
	}
	return c, nil
}

// Append records one sample per signal from the snapshot. Signals
// missing from the snapshot record zero.
func (t *Trace) Append(snapshot map[string]uint16) {
	for _, s := range t.signals {
		t.rows = append(t.rows, snapshot[s])
	}
}

// Samples returns the recorded series for a signal.
func (t *Trace) Samples(signal string) ([]uint16, error) {
	c, err := t.column(signal)
	if err != nil {
		return nil, err
	}
	out := make([]uint16, t.Len())
	for i := range out {
		out[i] = t.rows[i*len(t.signals)+c]
	}
	return out, nil
}

// At returns the value of a signal at tick i.
func (t *Trace) At(signal string, i int) (uint16, error) {
	c, err := t.column(signal)
	if err != nil {
		return 0, err
	}
	if i < 0 || i >= t.Len() {
		return 0, fmt.Errorf("trace: index %d out of range [0,%d)", i, t.Len())
	}
	return t.rows[i*len(t.signals)+c], nil
}

// Recorder samples every signal of a bus at the end of each tick.
// Install its Hook as a kernel post-hook. The bus's signal set must be
// complete when the recorder is created.
type Recorder struct {
	bus   *sim.Bus
	trace *Trace
}

// NewRecorder creates a recorder over all signals currently registered
// on the bus.
func NewRecorder(bus *sim.Bus) (*Recorder, error) {
	return NewRecorderCap(bus, 0)
}

// NewRecorderCap is NewRecorder with the row buffer preallocated for
// the given number of ticks (the run horizon), so a run of known
// length records into one allocation.
func NewRecorderCap(bus *sim.Bus, capacity int) (*Recorder, error) {
	tr := NewTrace(bus.Columns())
	if capacity > 0 {
		tr.rows = make([]uint16, 0, capacity*len(tr.signals))
	}
	return &Recorder{bus: bus, trace: tr}, nil
}

// Hook returns the kernel post-hook performing the sampling: one row
// append per tick.
func (r *Recorder) Hook() sim.Hook {
	return func(sim.Millis) {
		r.trace.rows = append(r.trace.rows, r.bus.Values()...)
	}
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace { return r.trace }

// Diff summarises how one signal of a run trace deviates from the
// golden run.
type Diff struct {
	Signal string
	// First and Last are the tick indices (= milliseconds) of the
	// first and last differing sample.
	First, Last sim.Millis
	// Count is the number of differing samples.
	Count int
}

// Differs reports whether any sample differed.
func (d Diff) Differs() bool { return d.Count > 0 }

// Tolerances maps signal names to the absolute deviation (in raw
// 16-bit units) that still counts as "equal" during a Golden Run
// Comparison. The paper compares exactly — valid because its setup
// runs real software in simulated time on simulated hardware, where
// "fluctuations between similar runs in a real environment" cannot
// occur (Section 7.3). On a real test rig continuous signals need a
// tolerance band; this type provides it. Signals without an entry are
// compared exactly.
type Tolerances map[string]uint16

// withinBand reports whether a and b differ by at most tol, a
// signal's Tolerances entry (0, exact, for a signal without one).
func withinBand(tol, a, b uint16) bool {
	d := a - b
	if int16(d) < 0 {
		d = -d
	}
	return d <= tol
}

// Compare performs a full Golden Run Comparison between two complete
// traces over the same signal set and length, returning one Diff per
// signal.
func Compare(golden, run *Trace) (map[string]Diff, error) {
	return CompareTol(golden, run, nil)
}

// CompareTol is Compare with per-signal tolerance bands.
func CompareTol(golden, run *Trace, tol Tolerances) (map[string]Diff, error) {
	if golden.Len() != run.Len() {
		return nil, fmt.Errorf("trace: length mismatch: golden %d, run %d", golden.Len(), run.Len())
	}
	gs, rs := golden.Signals(), run.Signals()
	if len(gs) != len(rs) {
		return nil, errors.New("trace: traces cover different signal sets")
	}
	out := make(map[string]Diff, len(gs))
	w := len(gs)
	for c, sig := range gs {
		if rs[c] != sig {
			return nil, errors.New("trace: traces cover different signal sets")
		}
		d := Diff{Signal: sig, First: -1, Last: -1}
		band := tol[sig]
		for t := 0; t < golden.Len(); t++ {
			g, r := golden.rows[t*w+c], run.rows[t*w+c]
			if g != r && !withinBand(band, g, r) {
				if d.Count == 0 {
					d.First = sim.Millis(t)
				}
				d.Last = sim.Millis(t)
				d.Count++
			}
		}
		out[sig] = d
	}
	return out, nil
}

// StreamComparator performs the Golden Run Comparison on the fly
// during an injection run, so the run trace never needs to be stored:
// install its Hook as a kernel post-hook and read the Diffs when the
// run ends. This is what lets a full campaign of tens of thousands of
// runs execute in constant memory per worker.
//
// The bus's value row and the golden trace's rows share one column
// order, so a tick costs one pass over the row, which compares each
// sample and records a deviating one on the spot.
type StreamComparator struct {
	bus     *sim.Bus
	golden  []uint16 // the golden trace's rows
	width   int      // signals per row
	diffs   []Diff   // one per column
	bands   []uint16 // tolerance per column; empty compares exactly
	horizon int      // golden trace length
	tick    int
	err     error // set when the bus's columns changed after binding

	// Marks (see Mark): the tick of each mark, ascending, and per mark
	// and column (flat, mark-major) the column's Count at the mark and
	// its first deviation at or after it. A column's first deviations
	// are set for marks [0, unset[col]) and not yet for the rest, so a
	// deviation fills in exactly the marks from unset[col] on.
	marks     []int
	markCount []int
	markFirst []sim.Millis
	unset     []int
}

// SetTolerances installs per-signal tolerance bands; call before the
// first tick.
func (c *StreamComparator) SetTolerances(tol Tolerances) {
	c.bands = c.bands[:0]
	for i := 0; len(tol) > 0 && i < len(c.diffs); i++ {
		c.bands = append(c.bands, tol[c.diffs[i].Signal])
	}
}

// NewStreamComparator creates a comparator of the given bus against a
// golden trace recorded over the same signal set, of at most
// math.MaxInt32 ticks (suffixes store ticks and counts as int32).
func NewStreamComparator(golden *Trace, bus *sim.Bus) (*StreamComparator, error) {
	if golden.Len() > math.MaxInt32 {
		return nil, fmt.Errorf("trace: golden trace of %d ticks exceeds the %d-tick comparison limit", golden.Len(), math.MaxInt32)
	}
	c := &StreamComparator{diffs: make([]Diff, len(golden.signals))}
	if !c.bind(golden, bus) {
		return nil, errors.New("trace: bus and golden trace cover different signal sets")
	}
	return c, nil
}

// bind points the comparator at a bus and golden trace, resetting all
// comparison state. It reports false when the bus's columns are not
// the golden trace's signals, the comparator was sized for another
// signal count, or the trace is too long for NewStreamComparator.
func (c *StreamComparator) bind(golden *Trace, bus *sim.Bus) bool {
	if len(c.diffs) != len(golden.signals) || !slices.Equal(bus.Columns(), golden.signals) || golden.Len() > math.MaxInt32 {
		return false
	}
	for i, n := range golden.signals {
		c.diffs[i].Signal = n
	}
	c.bus, c.golden, c.width = bus, golden.rows, len(golden.signals)
	c.bands = c.bands[:0]
	c.Reset()
	return true
}

// Reset starts the comparison over for another run on the same bus
// against the same golden trace: the diffs, the marks, the position
// and any error are cleared, the tolerance bands kept. A comparator
// whose hook stays installed on an instance restored run after run is
// reset before each run.
func (c *StreamComparator) Reset() {
	for i := range c.diffs {
		c.diffs[i] = Diff{Signal: c.diffs[i].Signal, First: -1, Last: -1}
	}
	c.horizon = 0
	if c.width > 0 {
		c.horizon = len(c.golden) / c.width
	}
	c.tick = 0
	c.err = nil
	c.marks, c.markCount, c.markFirst = c.marks[:0], c.markCount[:0], c.markFirst[:0]
	c.unset = slices.Grow(c.unset[:0], len(c.diffs))[:len(c.diffs)]
	clear(c.unset)
}

// SeekTo positions the comparator at the given tick, as if the first
// `tick` samples had already been compared and matched. The campaign
// engine uses it when fast-forwarding an injection run from a
// checkpoint: the pre-injection prefix is bit-identical to the golden
// run by construction, so comparison starts at the checkpoint tick.
func (c *StreamComparator) SeekTo(tick int) error {
	if tick < 0 || tick > c.horizon {
		return fmt.Errorf("trace: seek to tick %d outside golden trace [0,%d]", tick, c.horizon)
	}
	c.tick = tick
	return nil
}

// Hook returns the kernel post-hook performing the per-tick compare.
// Ticks beyond the golden trace length are ignored.
func (c *StreamComparator) Hook() sim.Hook {
	return func(sim.Millis) {
		if c.tick >= c.horizon {
			return
		}
		at := c.tick * c.width
		golden, live := c.golden[at:at+c.width], c.bus.Values()
		switch {
		case len(live) != len(golden):
			c.columnsChanged(len(live))
		case len(c.bands) > 0:
			c.compareBanded(golden, live)
		default:
			c.compare(golden, live)
		}
		c.tick++
	}
}

// compare records the samples of a tick that differ from the golden
// row: the compare, the Diff update and the mark fill are one pass
// over the row.
func (c *StreamComparator) compare(golden, live []uint16) {
	live = live[:len(golden)]
	t := sim.Millis(c.tick)
	for i, g := range golden {
		if live[i] == g {
			continue
		}
		d := &c.diffs[i]
		if d.Count == 0 {
			d.First = t
		}
		d.Last = t
		d.Count++
		if c.unset[i] < len(c.marks) {
			c.fillMarks(i, t)
		}
	}
}

// compareBanded is compare for a comparator with tolerance bands: a
// sample within its signal's band counts as equal.
func (c *StreamComparator) compareBanded(golden, live []uint16) {
	for i, g := range golden {
		if v := live[i]; v != g && !withinBand(c.bands[i], g, v) {
			t := sim.Millis(c.tick)
			c.deviate(i, t, t, 1)
		}
	}
}

// columnsChanged stops a comparison whose bus row no longer has the
// golden trace's width: a signal was registered after binding, which
// shifts the bus's columns. The comparator reports it through Err
// rather than attribute diffs to the wrong signals.
func (c *StreamComparator) columnsChanged(width int) {
	c.err = fmt.Errorf("trace: bus has %d signals at tick %d, the golden trace %d: signals were registered after the comparator was bound",
		width, c.tick, c.width)
	c.horizon = c.tick
}

// deviate adds count deviating samples of column col spanning
// [first, last], all at or after every existing mark.
func (c *StreamComparator) deviate(col int, first, last sim.Millis, count int) {
	d := &c.diffs[col]
	if d.Count == 0 {
		d.First = first
	}
	d.Last = last
	d.Count += count
	c.fillMarks(col, first)
}

// fillMarks sets first as column col's first deviation at or after
// each mark that has none yet.
func (c *StreamComparator) fillMarks(col int, first sim.Millis) {
	for m := c.unset[col]; m < len(c.marks); m++ {
		c.markFirst[m*c.width+col] = first
	}
	c.unset[col] = len(c.marks)
}

// Mark notes the current tick, so that SuffixSince can later report
// the comparison from here to the run's end on its own. It returns
// the mark's handle. Marks cost nothing on a matching tick; a
// deviating sample updates each mark at most once per column.
func (c *StreamComparator) Mark() int {
	c.marks = append(c.marks, c.tick)
	for _, d := range c.diffs {
		c.markCount = append(c.markCount, d.Count)
		c.markFirst = append(c.markFirst, -1)
	}
	return len(c.marks) - 1
}

// Suffix is the Golden Run Comparison of a run from one tick to its
// end, on its own: the diffs of the columns that deviated in that
// stretch. A comparator that reached the same tick in the same state
// can Splice it instead of comparing the rest of its run. Campaigns
// keep thousands of suffixes, so a column is stored in 16 bytes: by
// its index, without its signal name, with int32 ticks and count.
type Suffix struct {
	from, width int
	cols        []suffixCol
}

type suffixCol struct {
	col, count  int32
	first, last int32
}

// SuffixSince returns the comparison from mark m to the current tick:
// per column, the first deviation at or after the mark, the last one,
// and their count.
func (c *StreamComparator) SuffixSince(m int) Suffix {
	return c.SuffixSinceInto(Suffix{}, m)
}

// SuffixSinceInto is SuffixSince, except that the result reuses dst's
// column buffer when it is large enough, so a suffix nothing reads any
// more can be recycled without allocating. dst is overwritten.
func (c *StreamComparator) SuffixSinceInto(dst Suffix, m int) Suffix {
	counts, firsts := c.markCount[m*c.width:(m+1)*c.width], c.markFirst[m*c.width:(m+1)*c.width]
	n := 0
	for i, d := range c.diffs {
		if d.Count > counts[i] {
			n++
		}
	}
	s := Suffix{from: c.marks[m], width: c.width, cols: slices.Grow(dst.cols[:0], n)}
	for i, d := range c.diffs {
		if d.Count > counts[i] {
			s.cols = append(s.cols, suffixCol{col: int32(i), count: int32(d.Count - counts[i]), first: int32(firsts[i]), last: int32(d.Last)})
		}
	}
	return s
}

// Splice completes the comparison with a suffix taken from another
// run of the same golden trace at the current tick: per column, First
// stays the prefix's if it deviated and is the suffix's otherwise,
// Last is the suffix's if it deviated and stays the prefix's
// otherwise, and the counts add. The comparator is then at the end
// of the golden trace; its marks see the suffix as their own.
func (c *StreamComparator) Splice(s Suffix) error {
	if s.from != c.tick {
		return fmt.Errorf("trace: splicing a suffix from tick %d at tick %d", s.from, c.tick)
	}
	if s.width != c.width {
		return fmt.Errorf("trace: splicing a suffix over %d columns into a comparison of %d", s.width, c.width)
	}
	for _, sc := range s.cols {
		c.deviate(int(sc.col), sim.Millis(sc.first), sim.Millis(sc.last), int(sc.count))
	}
	c.tick = c.horizon
	return nil
}

// Diffs returns the per-signal comparison results, keyed by signal.
func (c *StreamComparator) Diffs() map[string]Diff {
	out := make(map[string]Diff, len(c.diffs))
	for _, d := range c.diffs {
		out[d.Signal] = d
	}
	return out
}

// DeviatingDiffs returns only the signals that deviated, in
// ascending name order — nil when the run matched the golden trace
// everywhere. A trace's columns are its signals sorted (NewTrace,
// ReadFrom), so column order is name order and the result is one
// allocation: the slice the run's record, the aggregates, the memo
// store and the journal then share. Callers must treat a missing
// entry as "no deviation", never as a zero-valued Diff (whose First
// of 0 would read as a deviation at tick 0).
func (c *StreamComparator) DeviatingDiffs() Diffs {
	n := 0
	for _, d := range c.diffs {
		if d.Differs() {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make(Diffs, 0, n)
	for _, d := range c.diffs {
		if d.Differs() {
			out = append(out, d)
		}
	}
	return out
}

// Diff returns the comparison result for one signal.
func (c *StreamComparator) Diff(signal string) (Diff, error) {
	for _, d := range c.diffs {
		if d.Signal == signal {
			return d, nil
		}
	}
	return Diff{}, fmt.Errorf("trace: comparator does not cover signal %q", signal)
}

// Err reports a comparison that could not be carried out: the bus
// gained signals after the comparator was bound. The diffs are then
// incomplete and must not be used.
func (c *StreamComparator) Err() error { return c.err }

// Ticks returns how many ticks have been compared.
func (c *StreamComparator) Ticks() int { return c.tick }
