// Package trace implements signal tracing and Golden Run Comparison
// (GRC) as in the paper's Section 6: a Golden Run is a trace of the
// system executing without injections; every injection-run trace is
// compared against it, and any difference indicates an error. Traces
// have millisecond resolution for every logged variable (Section 7.3).
package trace

import (
	"errors"
	"fmt"
	"sort"

	"propane/internal/sim"
)

// Trace is a millisecond-resolution record of a set of signals. Sample
// t of each signal is the value at the end of simulation tick t.
type Trace struct {
	signals []string
	samples map[string][]uint16
}

// NewTrace creates an empty trace for the given signal names.
func NewTrace(signals []string) *Trace {
	names := make([]string, len(signals))
	copy(names, signals)
	sort.Strings(names)
	samples := make(map[string][]uint16, len(names))
	for _, s := range names {
		samples[s] = nil
	}
	return &Trace{signals: names, samples: samples}
}

// Signals returns the traced signal names, sorted.
func (t *Trace) Signals() []string {
	out := make([]string, len(t.signals))
	copy(out, t.signals)
	return out
}

// Len returns the number of samples recorded per signal.
func (t *Trace) Len() int {
	if len(t.signals) == 0 {
		return 0
	}
	return len(t.samples[t.signals[0]])
}

// Append records one sample per signal from the snapshot. Signals
// missing from the snapshot record zero.
func (t *Trace) Append(snapshot map[string]uint16) {
	for _, s := range t.signals {
		t.samples[s] = append(t.samples[s], snapshot[s])
	}
}

// Samples returns the recorded series for a signal.
func (t *Trace) Samples(signal string) ([]uint16, error) {
	s, ok := t.samples[signal]
	if !ok {
		return nil, fmt.Errorf("trace: no signal %q", signal)
	}
	out := make([]uint16, len(s))
	copy(out, s)
	return out, nil
}

// Changes counts, without copying the series, the ticks on which a
// signal differs from the tick before, out of samples recorded.
func (t *Trace) Changes(signal string) (changes, samples int) {
	s := t.samples[signal]
	for i := 1; i < len(s); i++ {
		if s[i] != s[i-1] {
			changes++
		}
	}
	return changes, len(s)
}

// At returns the value of a signal at tick i.
func (t *Trace) At(signal string, i int) (uint16, error) {
	s, ok := t.samples[signal]
	if !ok {
		return 0, fmt.Errorf("trace: no signal %q", signal)
	}
	if i < 0 || i >= len(s) {
		return 0, fmt.Errorf("trace: index %d out of range [0,%d)", i, len(s))
	}
	return s[i], nil
}

// Recorder samples every signal of a bus at the end of each tick.
// Install its Hook as a kernel post-hook.
type Recorder struct {
	handles []*sim.Signal
	series  [][]uint16
	trace   *Trace
}

// NewRecorder creates a recorder over all signals currently registered
// on the bus.
func NewRecorder(bus *sim.Bus) (*Recorder, error) {
	return NewRecorderCap(bus, 0)
}

// NewRecorderCap is NewRecorder with the per-signal sample buffers
// preallocated for the given number of ticks (the run horizon), so a
// run of known length records without growth reallocations.
func NewRecorderCap(bus *sim.Bus, capacity int) (*Recorder, error) {
	names := bus.Names()
	handles := make([]*sim.Signal, len(names))
	series := make([][]uint16, len(names))
	for i, n := range names {
		s, err := bus.Lookup(n)
		if err != nil {
			return nil, err
		}
		handles[i] = s
		if capacity > 0 {
			series[i] = make([]uint16, 0, capacity)
		}
	}
	return &Recorder{handles: handles, series: series, trace: NewTrace(names)}, nil
}

// Hook returns the kernel post-hook performing the sampling.
func (r *Recorder) Hook() sim.Hook {
	return func(sim.Millis) {
		for i, h := range r.handles {
			r.series[i] = append(r.series[i], h.Read())
		}
	}
}

// Trace returns the recorded trace.
func (r *Recorder) Trace() *Trace {
	// Sampling appends to indexed series (no per-tick map writes);
	// sync them into the trace on access.
	for i, sig := range r.trace.signals {
		r.trace.samples[sig] = r.series[i]
	}
	return r.trace
}

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
	for i, sig := range gs {
		if rs[i] != sig {
			return nil, errors.New("trace: traces cover different signal sets")
		}
		d := Diff{Signal: sig, First: -1, Last: -1}
		g, r, band := golden.samples[sig], run.samples[sig], tol[sig]
		for t := range g {
			if g[t] != r[t] && !withinBand(band, g[t], r[t]) {
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
type StreamComparator struct {
	handles []*sim.Signal
	samples [][]uint16 // golden sample series, one per handle
	diffs   []Diff
	bands   []uint16 // tolerance per handle; empty compares exactly
	horizon int      // golden trace length
	tick    int
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
	names := golden.Signals()
	busNames := bus.Names()
	if len(busNames) != len(names) {
		return nil, errors.New("trace: bus and golden trace cover different signal sets")
	}
	handles := make([]*sim.Signal, len(names))
	samples := make([][]uint16, len(names))
	diffs := make([]Diff, len(names))
	for i, n := range names {
		if busNames[i] != n {
			return nil, errors.New("trace: bus and golden trace cover different signal sets")
		}
		s, err := bus.Lookup(n)
		if err != nil {
			return nil, err
		}
		handles[i] = s
		samples[i] = golden.samples[n]
		diffs[i] = Diff{Signal: n, First: -1, Last: -1}
	}
	return &StreamComparator{handles: handles, samples: samples, diffs: diffs, horizon: golden.Len()}, nil
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
		for i, h := range c.handles {
			g := c.samples[i][c.tick]
			v := h.Read()
			if v == g {
				continue
			}
			if len(c.bands) == 0 || !withinBand(c.bands[i], g, v) {
				d := &c.diffs[i]
				if d.Count == 0 {
					d.First = sim.Millis(c.tick)
				}
				d.Last = sim.Millis(c.tick)
				d.Count++
			}
		}
		c.tick++
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

// Ticks returns how many ticks have been compared.
func (c *StreamComparator) Ticks() int { return c.tick }
