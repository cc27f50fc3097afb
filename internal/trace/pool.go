package trace

import (
	"sync"

	"propane/internal/sim"
)

// Scratch-buffer pooling for the campaign hot path. Every injection
// run needs a StreamComparator (handles, golden-sample and diff
// slices) and every golden-digest pass a Recorder; both allocate
// per-signal slices that are identical in shape from run to run, so
// they are recycled through sync.Pools. Acquire falls back to a fresh
// construction whenever the pooled object's shape does not match the
// requested bus/trace, so callers never observe a difference from
// New*.

var comparatorPool = sync.Pool{New: func() any { return nil }}

// AcquireStreamComparator returns a comparator of the given bus
// against the golden trace, recycling a pooled one when its shape
// matches. Release it with ReleaseStreamComparator once its diffs have
// been copied out and the instance holding its hook is discarded.
func AcquireStreamComparator(golden *Trace, bus *sim.Bus) (*StreamComparator, error) {
	if c, _ := comparatorPool.Get().(*StreamComparator); c != nil && c.rebind(golden, bus) {
		return c, nil
	}
	// Shape mismatch (or empty pool): build fresh; a half-rebound
	// comparator is simply dropped.
	return NewStreamComparator(golden, bus)
}

// ReleaseStreamComparator recycles a comparator obtained from
// AcquireStreamComparator (or NewStreamComparator). The caller must
// not touch it afterwards; any kernel still holding its Hook must be
// discarded with it.
func ReleaseStreamComparator(c *StreamComparator) {
	if c != nil {
		comparatorPool.Put(c)
	}
}

// rebind points a used comparator at a new bus and golden trace,
// resetting all comparison state. It reports false when the pooled
// shape does not match — mixed-topology processes (e.g. the test
// suite) then fall back to a fresh construction.
func (c *StreamComparator) rebind(golden *Trace, bus *sim.Bus) bool {
	names := golden.signals
	busNames := bus.Names()
	if len(busNames) != len(names) || len(c.handles) != len(names) {
		return false
	}
	for i, n := range names {
		if busNames[i] != n {
			return false
		}
		s, err := bus.Lookup(n)
		if err != nil {
			return false
		}
		c.handles[i] = s
		c.samples[i] = golden.samples[n]
		c.diffs[i] = Diff{Signal: n, First: -1, Last: -1}
	}
	c.bands = c.bands[:0]
	c.horizon = golden.Len()
	c.tick = 0
	return true
}

var recorderPool = sync.Pool{New: func() any { return nil }}

// AcquireRecorder returns a recorder over the bus's signals with
// buffers for `capacity` ticks, recycling a pooled one when its shape
// matches.
//
// HAZARD: Recorder.Trace returns the recorder's one retained *Trace;
// ReleaseRecorder truncates its sample series in place. Only release
// a recorder whose trace is fully consumed and discarded (hashing,
// digesting). A trace that outlives the run — like the campaign's
// golden traces — must come from a recorder that is never released.
func AcquireRecorder(bus *sim.Bus, capacity int) (*Recorder, error) {
	if r, _ := recorderPool.Get().(*Recorder); r != nil && r.rebind(bus, capacity) {
		return r, nil
	}
	return NewRecorderCap(bus, capacity)
}

// ReleaseRecorder recycles a recorder obtained from AcquireRecorder.
// See the aliasing hazard there: the recorder's trace must be dead.
func ReleaseRecorder(r *Recorder) {
	if r != nil {
		recorderPool.Put(r)
	}
}

// rebind points a used recorder at a new bus, truncating (and, when
// the requested capacity grew, reallocating) its sample buffers.
func (r *Recorder) rebind(bus *sim.Bus, capacity int) bool {
	names := bus.Names()
	if len(names) != len(r.handles) || len(names) != len(r.trace.signals) {
		return false
	}
	for i, n := range names {
		if r.trace.signals[i] != n {
			return false
		}
		s, err := bus.Lookup(n)
		if err != nil {
			return false
		}
		r.handles[i] = s
		if cap(r.series[i]) < capacity {
			r.series[i] = make([]uint16, 0, capacity)
		} else {
			r.series[i] = r.series[i][:0]
		}
	}
	return true
}
