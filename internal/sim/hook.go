package sim

// ReadHook observes (and may corrupt) a module's read of an input
// signal. The fault-injection traps of internal/inject implement this:
// PROPANE-style high-level software traps that fire when the
// instrumented read is reached during execution (paper Section 7.3).
// The hook runs before the module reads the signal value, so a flip
// applied here is seen by the module on this very read and persists in
// the signal variable until the producer overwrites it.
//
// A hook returns detach=true once it can no longer act on reads by the
// calling reader — a trap that has fired, or one armed for another
// module. The reader then stops calling it. A module embeds a Reader,
// which does exactly that, and reads each input through it:
//
//	pc := c.Read(c.pulscntIn, now) // c embeds sim.Reader
//
// Detaching applies to the calling reader only; other readers keep
// their own reference. A reader passes the same module name on every
// call, so a hook may decide from the module name alone. A hook that
// must see every read (the golden run's read log) always returns false.
type ReadHook func(module, signal string, sig *Signal, now Millis) (detach bool)

// Reader is one module's instrumented input reads: every Read passes
// the module's ReadHook until the hook detaches. Embedding it gives a
// module Task's Name method.
type Reader struct {
	name   string
	onRead ReadHook
}

// NewReader returns the reader of the named module. hook may be nil
// (an uninstrumented run).
func NewReader(module string, hook ReadHook) Reader {
	return Reader{name: module, onRead: hook}
}

// Name returns the module name passed to the hook.
func (r *Reader) Name() string { return r.name }

// Read returns s's value after passing the read to the hook, if one is
// attached. It inlines into every module Step only because the hook
// call stays out of line, in call.
func (r *Reader) Read(s *Signal, now Millis) uint16 {
	if r.onRead != nil {
		r.call(s, now)
	}
	return *s.v
}

// ReadBool reads s as a boolean flag: any non-zero value is true.
func (r *Reader) ReadBool(s *Signal, now Millis) bool { return r.Read(s, now) != 0 }

// call runs the hook for one read and detaches it when it asks to.
//
//go:noinline
func (r *Reader) call(s *Signal, now Millis) {
	if r.onRead(r.name, s.name, s, now) {
		r.onRead = nil
	}
}
