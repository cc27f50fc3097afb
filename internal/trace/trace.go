// Package trace implements signal tracing and Golden Run Comparison
// (GRC) as in the paper's Section 6: a Golden Run is a trace of the
// system executing without injections; every injection-run trace is
// compared against it, and any difference indicates an error. Traces
// have millisecond resolution for every logged variable (Section 7.3).
package trace

import (
	"errors"
	"fmt"
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

// Changes counts, without copying the series, the ticks on which a
// signal differs from the tick before, out of samples recorded.
func (t *Trace) Changes(signal string) (changes, samples int) {
	c, err := t.column(signal)
	if err != nil {
		return 0, 0
	}
	w := len(t.signals)
	for at := c + w; at < len(t.rows); at += w {
		if t.rows[at] != t.rows[at-w] {
			changes++
		}
	}
	return changes, t.Len()
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
// order, so a tick on which the run matches the golden run costs one
// slice compare; only a mismatching tick walks its signals.
type StreamComparator struct {
	bus     *sim.Bus
	golden  []uint16 // the golden trace's rows
	width   int      // signals per row
	diffs   []Diff   // one per column
	bands   []uint16 // tolerance per column; empty compares exactly
	horizon int      // golden trace length
	tick    int
	err     error // set when the bus's columns changed after binding
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
// golden trace recorded over the same signal set.
func NewStreamComparator(golden *Trace, bus *sim.Bus) (*StreamComparator, error) {
	c := &StreamComparator{diffs: make([]Diff, len(golden.signals))}
	if !c.bind(golden, bus) {
		return nil, errors.New("trace: bus and golden trace cover different signal sets")
	}
	return c, nil
}

// bind points the comparator at a bus and golden trace, resetting all
// comparison state. It reports false when the bus's columns are not
// the golden trace's signals or the comparator was sized for another
// signal count.
func (c *StreamComparator) bind(golden *Trace, bus *sim.Bus) bool {
	if len(c.diffs) != len(golden.signals) || !slices.Equal(bus.Columns(), golden.signals) {
		return false
	}
	for i, n := range golden.signals {
		c.diffs[i] = Diff{Signal: n, First: -1, Last: -1}
	}
	c.bus, c.golden, c.width = bus, golden.rows, len(golden.signals)
	c.bands = c.bands[:0]
	c.horizon = golden.Len()
	c.tick = 0
	c.err = nil
	return true
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
		if g, v := c.golden[at:at+c.width], c.bus.Values(); !slices.Equal(g, v) {
			c.mismatch(g, v)
		}
		c.tick++
	}
}

// mismatch records the signals of a tick whose row differs from the
// golden row by more than their tolerance band. A live row of another
// width means a signal was registered after binding, which shifts the
// bus's columns: the comparator stops and reports it through Err
// rather than attribute diffs to the wrong signals.
func (c *StreamComparator) mismatch(golden, live []uint16) {
	if len(live) != len(golden) {
		c.err = fmt.Errorf("trace: bus has %d signals at tick %d, the golden trace %d: signals were registered after the comparator was bound",
			len(live), c.tick, len(golden))
		c.horizon = c.tick
		return
	}
	for i, g := range golden {
		if v := live[i]; v != g && (len(c.bands) == 0 || !withinBand(c.bands[i], g, v)) {
			d := &c.diffs[i]
			if d.Count == 0 {
				d.First = sim.Millis(c.tick)
			}
			d.Last = sim.Millis(c.tick)
			d.Count++
		}
	}
}

// Diffs returns the per-signal comparison results, keyed by signal.
func (c *StreamComparator) Diffs() map[string]Diff {
	out := make(map[string]Diff, len(c.diffs))
	for _, d := range c.diffs {
		out[d.Signal] = d
	}
	return out
}

// DeviatingDiffs returns only the signals that deviated, keyed by
// signal — nil when the run matched the golden trace everywhere. On
// the campaign hot path the overwhelming majority of runs deviate on
// few or no signals, so the sparse form skips building (and garbage-
// collecting) a full per-signal map per run. Callers must treat a
// missing entry as "no deviation", never as a zero-valued Diff (whose
// First of 0 would read as a deviation at tick 0).
func (c *StreamComparator) DeviatingDiffs() map[string]Diff {
	var out map[string]Diff
	for _, d := range c.diffs {
		if d.Differs() {
			if out == nil {
				out = make(map[string]Diff, 4)
			}
			out[d.Signal] = d
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
