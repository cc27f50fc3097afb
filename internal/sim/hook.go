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
// module. The reader then stops calling it:
//
//	if m.onRead != nil && m.onRead(m.name, s.Name(), s, now) {
//		m.onRead = nil
//	}
//
// Detaching applies to the calling reader only; other readers keep
// their own reference. A reader passes the same module name on every
// call, so a hook may decide from the module name alone. A hook that
// must see every read (the golden run's read log) always returns false.
type ReadHook func(module, signal string, sig *Signal, now Millis) (detach bool)
