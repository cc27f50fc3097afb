package sim

import (
	"errors"
	"fmt"
	"time"
)

// Task is a schedulable unit of software: one of the target system's
// modules. Step is called with the current simulated time.
type Task interface {
	Name() string
	Step(now Millis)
}

// TaskFunc adapts a function to the Task interface.
type TaskFunc struct {
	TaskName string
	Fn       func(now Millis)
}

// Name implements Task.
func (t TaskFunc) Name() string { return t.TaskName }

// Step implements Task.
func (t TaskFunc) Step(now Millis) { t.Fn(now) }

// Hook is an environment or instrumentation callback run by the kernel
// around each tick (physics updates before the software, trace
// sampling after it).
type Hook func(now Millis)

// Budget bounds one run of the kernel — the per-run watchdog of the
// supervised execution layer. An injected error can drive a target
// module into a non-terminating state; the budget lets the campaign
// terminate such a run deterministically and classify it as a hang
// instead of stalling forever.
type Budget struct {
	// Steps caps the number of work units charged during one run: the
	// kernel charges one unit per task Step invocation, and
	// instrumented module code may charge additional units from inner
	// loops via Kernel.Charge (the simulated analogue of an executed
	// instruction budget). 0 means unlimited. Step accounting is fully
	// deterministic: the same run trips at the same point in every
	// process.
	Steps int64
	// Wall caps the wall-clock duration of one Run call, as a coarse
	// backstop for non-terminating code that never charges the step
	// budget. 0 means unlimited. Wall-clock checks are inherently
	// non-deterministic; prefer Steps wherever reproducibility
	// matters.
	Wall time.Duration
}

// errBudgetExhausted is the sentinel panic Charge raises to unwind
// out of a non-terminating task; Run recovers exactly this value and
// records the exhaustion, so genuine target panics still propagate to
// the campaign's crash classification.
var errBudgetExhausted = errors.New("sim: run budget exhausted")

// Kernel is the slot-based, non-preemptive scheduler of the target
// system (Section 7.1): time advances in 1-ms ticks; the system
// operates in a fixed number of 1-ms slots; in each slot the
// every-tick tasks and the tasks registered for that slot are invoked;
// the background task (CALC in the paper) runs when the other modules
// are dormant, i.e. at the end of every tick.
type Kernel struct {
	numSlots   int
	slotSignal *Signal // current slot read from this signal (ms_slot_nbr)

	pre        []Hook
	everyTick  []Task
	slotted    [][]Task
	background []Task
	post       []Hook

	// Inline backing storage for the lists above: a target wires a
	// handful of tasks and hooks, so building a kernel for one run
	// allocates the kernel and nothing else. Lists that outgrow it
	// move to the heap.
	hookBuf        [4]Hook
	taskBuf        [8]Task
	slotBuf        [8][]Task
	hooksN, tasksN int

	now Millis

	budget    Budget
	used      int64
	deadline  time.Time
	exhausted bool
}

// NewKernel creates a kernel with the given number of execution slots
// (7 in the paper's target system).
func NewKernel(numSlots int) (*Kernel, error) {
	if numSlots < 1 {
		return nil, fmt.Errorf("sim: numSlots must be >= 1, got %d", numSlots)
	}
	k := &Kernel{numSlots: numSlots}
	if numSlots <= len(k.slotBuf) {
		k.slotted = k.slotBuf[:numSlots]
	} else {
		k.slotted = make([][]Task, numSlots)
	}
	return k, nil
}

// appendInline appends v to s. While they fit, s's backing arrays are
// carved from buf, whose first *used elements are taken, doubling
// like append does; beyond that append allocates as usual.
func appendInline[T any](buf []T, used *int, s []T, v T) []T {
	if len(s) < cap(s) {
		return append(s, v)
	}
	n := max(2*len(s), 1)
	if *used+n > len(buf) {
		return append(s, v)
	}
	grown := buf[*used : *used+len(s) : *used+n]
	*used += n
	copy(grown, s)
	return append(grown, v)
}

// UseSlotSignal makes the kernel read the current execution slot from
// the given signal (the paper's ms_slot_nbr, produced by CLOCK) rather
// than deriving it from the tick counter. Values are taken modulo the
// slot count, so a corrupted slot signal shifts the schedule rather
// than crashing it — matching the behaviour of the real slot table.
func (k *Kernel) UseSlotSignal(s *Signal) { k.slotSignal = s }

// AddPreHook registers an environment hook run at the start of every
// tick, before any software task (hardware register refresh, physics).
func (k *Kernel) AddPreHook(h Hook) { k.pre = appendInline(k.hookBuf[:], &k.hooksN, k.pre, h) }

// AddPostHook registers a hook run at the end of every tick (trace
// sampling, injection traps).
func (k *Kernel) AddPostHook(h Hook) { k.post = appendInline(k.hookBuf[:], &k.hooksN, k.post, h) }

// AddEveryTick schedules a task to run on every tick, before slotted
// tasks (the paper's CLOCK and DIST_S have period 1 ms).
func (k *Kernel) AddEveryTick(t Task) {
	k.everyTick = appendInline(k.taskBuf[:], &k.tasksN, k.everyTick, t)
}

// AddSlotted schedules a task in the given slot (0-based); it then
// runs once per full slot cycle (period 7 ms in the target system).
func (k *Kernel) AddSlotted(slot int, t Task) error {
	if slot < 0 || slot >= k.numSlots {
		return fmt.Errorf("sim: slot %d out of range [0,%d)", slot, k.numSlots)
	}
	k.slotted[slot] = appendInline(k.taskBuf[:], &k.tasksN, k.slotted[slot], t)
	return nil
}

// AddBackground schedules a task to run at the end of every tick, when
// the slotted modules are dormant (the paper's CALC).
func (k *Kernel) AddBackground(t Task) {
	k.background = appendInline(k.taskBuf[:], &k.tasksN, k.background, t)
}

// reattachReaders re-attaches the read hook of every scheduled task
// that embeds a Reader (Snapshotter.Restore).
func (k *Kernel) reattachReaders() {
	reattach := func(tasks []Task) {
		for _, t := range tasks {
			if r, ok := t.(interface{ reattach() }); ok {
				r.reattach()
			}
		}
	}
	reattach(k.everyTick)
	for _, tasks := range k.slotted {
		reattach(tasks)
	}
	reattach(k.background)
}

// Now returns the current simulated time.
func (k *Kernel) Now() Millis { return k.now }

// SetBudget arms the per-run watchdog and resets its accounting. Call
// it before Run; the zero Budget disables supervision.
func (k *Kernel) SetBudget(b Budget) {
	k.budget = b
	k.used = 0
	k.exhausted = false
	k.deadline = time.Time{}
}

// Charge consumes n work units of the step budget. Module code calls
// it from loops whose trip count depends on (possibly corrupted)
// signal values, so a run driven into a non-terminating state unwinds
// deterministically instead of hanging the worker. When the budget is
// exhausted, Charge panics with a sentinel that Run recovers and
// converts into the exhausted state; without an armed budget it only
// accumulates usage.
func (k *Kernel) Charge(n int64) {
	k.used += n
	if k.budget.Steps > 0 && k.used > k.budget.Steps {
		k.exhausted = true
		panic(errBudgetExhausted)
	}
}

// Exhausted reports whether the last Run was terminated by the
// watchdog — the kernel-level signature of a hung run.
func (k *Kernel) Exhausted() bool { return k.exhausted }

// BudgetUsed returns the work units consumed since the budget was
// last armed.
func (k *Kernel) BudgetUsed() int64 { return k.used }

// Tick advances simulated time by one millisecond, running pre-hooks,
// every-tick tasks, the current slot's tasks, background tasks and
// post-hooks, in that order.
func (k *Kernel) Tick() {
	now := k.now
	for _, h := range k.pre {
		h(now)
	}
	for _, t := range k.everyTick {
		k.used++
		t.Step(now)
	}
	// A slot signal is almost always in range already (its producer
	// wraps it), so the divide is paid only when it is not.
	slot := int(now)
	if k.slotSignal != nil {
		slot = int(k.slotSignal.Read())
	}
	if slot >= k.numSlots {
		slot %= k.numSlots
	}
	for _, t := range k.slotted[slot] {
		k.used++
		t.Step(now)
	}
	for _, t := range k.background {
		k.used++
		t.Step(now)
	}
	for _, h := range k.post {
		h(now)
	}
	k.now++
}

// Run executes ticks until the given simulated time (exclusive) is
// reached or the stop predicate returns true after a tick. It returns
// the time at which it stopped.
//
// With a budget armed (SetBudget), Run additionally stops — and marks
// the kernel Exhausted — when the charged work units exceed
// Budget.Steps (checked at tick boundaries and, mid-task, by Charge)
// or when Budget.Wall elapses. Budget exhaustion raised by Charge is
// recovered here; any other panic from task code propagates to the
// caller untouched, so crashes stay distinguishable from hangs.
func (k *Kernel) Run(until Millis, stop func() bool) (stopped Millis) {
	if k.budget.Wall > 0 {
		k.deadline = time.Now().Add(k.budget.Wall)
	}
	defer func() {
		stopped = k.now
		if r := recover(); r != nil {
			if r == errBudgetExhausted { //nolint:errorlint // sentinel identity, never wrapped
				return
			}
			panic(r)
		}
	}()
	for k.now < until {
		k.Tick()
		if k.budget.Steps > 0 && k.used > k.budget.Steps {
			k.exhausted = true
			break
		}
		if k.budget.Wall > 0 && time.Now().After(k.deadline) {
			k.exhausted = true
			break
		}
		if stop != nil && stop() {
			break
		}
	}
	return k.now
}
