package trace

import (
	"slices"
	"sync"

	"propane/internal/sim"
)

// Scratch-buffer pooling for the campaign hot path. Every injection
// run needs a StreamComparator (diff and band slices) and every
// golden-digest pass a Recorder (a horizon-sized row buffer); both are
// identical in shape from run to run, so they are recycled through
// sync.Pools. Acquire falls back to a fresh construction whenever the
// pooled object's shape does not match the requested bus/trace, so
// callers never observe a difference from New*.

var comparatorPool = sync.Pool{New: func() any { return nil }}

// AcquireStreamComparator returns a comparator of the given bus
// against the golden trace, recycling a pooled one when its shape
// matches. Release it with ReleaseStreamComparator once its diffs have
// been copied out and the instance holding its hook is discarded.
func AcquireStreamComparator(golden *Trace, bus *sim.Bus) (*StreamComparator, error) {
	if c, _ := comparatorPool.Get().(*StreamComparator); c != nil && c.bind(golden, bus) {
		return c, nil
	}
	// Shape mismatch (or empty pool): build fresh; the mismatched
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

var recorderPool = sync.Pool{New: func() any { return nil }}

// AcquireRecorder returns a recorder over the bus's signals with
// buffers for `capacity` ticks, recycling a pooled one when its shape
// matches.
//
// HAZARD: Recorder.Trace returns the recorder's one retained *Trace;
// ReleaseRecorder truncates its row buffer in place. Only release
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
// the requested capacity grew, reallocating) its row buffer.
func (r *Recorder) rebind(bus *sim.Bus, capacity int) bool {
	tr := r.trace
	if !slices.Equal(bus.Columns(), tr.signals) {
		return false
	}
	r.bus = bus
	if n := capacity * len(tr.signals); cap(tr.rows) < n {
		tr.rows = make([]uint16, 0, n)
	} else {
		tr.rows = tr.rows[:0]
	}
	return true
}
