package trace

import (
	"sync"

	"propane/internal/sim"
)

// Scratch-buffer pooling for the campaign hot path. Every injection
// run needs a StreamComparator (diff and band slices), identical in
// shape from run to run, so comparators are recycled through a
// sync.Pool. Acquire falls back to a fresh construction whenever the
// pooled comparator's shape does not match the requested bus/trace,
// so callers never observe a difference from NewStreamComparator.

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
