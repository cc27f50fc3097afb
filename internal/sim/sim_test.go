package sim

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSignalReadWrite(t *testing.T) {
	b := NewBus()
	s := b.Register("pulscnt")
	if s.Name() != "pulscnt" {
		t.Errorf("Name() = %q, want pulscnt", s.Name())
	}
	if s.Read() != 0 {
		t.Errorf("fresh signal = %d, want 0", s.Read())
	}
	s.Write(0xBEEF)
	if s.Read() != 0xBEEF {
		t.Errorf("Read() = %#x, want 0xBEEF", s.Read())
	}
}

func TestSignalBool(t *testing.T) {
	b := NewBus()
	s := b.Register("stopped")
	s.WriteBool(true)
	if s.Read() != 1 || !s.ReadBool() {
		t.Errorf("WriteBool(true): value=%d bool=%v", s.Read(), s.ReadBool())
	}
	s.WriteBool(false)
	if s.Read() != 0 || s.ReadBool() {
		t.Errorf("WriteBool(false): value=%d bool=%v", s.Read(), s.ReadBool())
	}
	// Non-canonical non-zero values still read as true (C semantics) —
	// this is what makes bit-flips in boolean signals interesting.
	s.Write(0x8000)
	if !s.ReadBool() {
		t.Error("ReadBool() of 0x8000 = false, want true")
	}
}

func TestFlipBit(t *testing.T) {
	b := NewBus()
	s := b.Register("x")
	if err := s.FlipBit(0); err != nil {
		t.Fatalf("FlipBit(0): %v", err)
	}
	if s.Read() != 1 {
		t.Errorf("after flip bit 0: %d, want 1", s.Read())
	}
	if err := s.FlipBit(15); err != nil {
		t.Fatalf("FlipBit(15): %v", err)
	}
	if s.Read() != 0x8001 {
		t.Errorf("after flip bit 15: %#x, want 0x8001", s.Read())
	}
	if err := s.FlipBit(16); err == nil {
		t.Error("FlipBit(16) succeeded, want error")
	}
	if err := b.FlipBit("x", 0); err != nil {
		t.Fatalf("Bus.FlipBit: %v", err)
	}
	if s.Read() != 0x8000 {
		t.Errorf("after bus flip bit 0: %#x, want 0x8000", s.Read())
	}
	if err := b.FlipBit("nope", 0); err == nil {
		t.Error("Bus.FlipBit(nope) succeeded, want error")
	}
}

// TestFlipBitInvolution is the property that flipping the same bit
// twice restores the value, for any value and any valid bit.
func TestFlipBitInvolution(t *testing.T) {
	prop := func(v uint16, bit uint8) bool {
		b := NewBus()
		s := b.Register("p")
		s.Write(v)
		bt := uint(bit % 16)
		if err := s.FlipBit(bt); err != nil {
			return false
		}
		if s.Read() == v {
			return false // one flip must change the value
		}
		if err := s.FlipBit(bt); err != nil {
			return false
		}
		return s.Read() == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBusRegisterIdempotent(t *testing.T) {
	b := NewBus()
	s1 := b.Register("sig")
	s2 := b.Register("sig")
	if s1 != s2 {
		t.Error("Register returned different handles for same name")
	}
	if got := b.Columns(); !reflect.DeepEqual(got, []string{"sig"}) {
		t.Errorf("Columns() = %v, want [sig]", got)
	}
}

func TestBusLookupAndSnapshot(t *testing.T) {
	b := NewBus()
	b.Register("a").Write(1)
	b.Register("b").Write(2)
	if _, err := b.Lookup("a"); err != nil {
		t.Errorf("Lookup(a): %v", err)
	}
	if _, err := b.Lookup("z"); err == nil {
		t.Error("Lookup(z) succeeded, want error")
	}
	snap := b.Snapshot()
	want := map[string]uint16{"a": 1, "b": 2}
	if !reflect.DeepEqual(snap, want) {
		t.Errorf("Snapshot() = %v, want %v", snap, want)
	}
}

func TestKernelValidation(t *testing.T) {
	if _, err := NewKernel(0); err == nil {
		t.Error("NewKernel(0) succeeded, want error")
	}
	k, err := NewKernel(7)
	if err != nil {
		t.Fatalf("NewKernel(7): %v", err)
	}
	if err := k.AddSlotted(7, TaskFunc{TaskName: "x", Fn: func(Millis) {}}); err == nil {
		t.Error("AddSlotted(7) succeeded, want error")
	}
	if err := k.AddSlotted(-1, TaskFunc{TaskName: "x", Fn: func(Millis) {}}); err == nil {
		t.Error("AddSlotted(-1) succeeded, want error")
	}
}

func TestKernelSchedulingOrder(t *testing.T) {
	k, err := NewKernel(2)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	rec := func(name string) TaskFunc {
		return TaskFunc{TaskName: name, Fn: func(Millis) { log = append(log, name) }}
	}
	k.AddPreHook(func(Millis) { log = append(log, "pre") })
	k.AddEveryTick(rec("every"))
	if err := k.AddSlotted(0, rec("slot0")); err != nil {
		t.Fatal(err)
	}
	if err := k.AddSlotted(1, rec("slot1")); err != nil {
		t.Fatal(err)
	}
	k.AddBackground(rec("bg"))
	k.AddPostHook(func(Millis) { log = append(log, "post") })

	k.Tick() // t=0: slot 0
	k.Tick() // t=1: slot 1
	want := []string{
		"pre", "every", "slot0", "bg", "post",
		"pre", "every", "slot1", "bg", "post",
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("execution order = %v, want %v", log, want)
	}
	if k.Now() != 2 {
		t.Errorf("Now() = %d, want 2", k.Now())
	}
}

// TestKernelSchedulingOrderBeyondInlineStorage: lists outgrowing the
// kernel's inline storage move to the heap with their order intact,
// however their additions interleave, and a kernel with more slots
// than the inline slot table schedules every slot.
func TestKernelSchedulingOrderBeyondInlineStorage(t *testing.T) {
	const slots = 11
	k, err := NewKernel(slots)
	if err != nil {
		t.Fatal(err)
	}
	var log []string
	rec := func(name string) TaskFunc {
		return TaskFunc{TaskName: name, Fn: func(Millis) { log = append(log, name) }}
	}
	hook := func(name string) Hook { return func(Millis) { log = append(log, name) } }
	var want []string
	for i := 0; i < 6; i++ {
		k.AddPreHook(hook(fmt.Sprintf("pre%d", i)))
		k.AddEveryTick(rec(fmt.Sprintf("every%d", i)))
		if err := k.AddSlotted(0, rec(fmt.Sprintf("slot%d", i))); err != nil {
			t.Fatal(err)
		}
		k.AddBackground(rec(fmt.Sprintf("bg%d", i)))
		k.AddPostHook(hook(fmt.Sprintf("post%d", i)))
	}
	if err := k.AddSlotted(slots-1, rec("last")); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"pre", "every", "slot", "bg", "post"} {
		for i := 0; i < 6; i++ {
			want = append(want, fmt.Sprintf("%s%d", kind, i))
		}
	}
	k.Tick()
	if !reflect.DeepEqual(log, want) {
		t.Errorf("execution order = %v, want %v", log, want)
	}
	for k.Now() < slots-1 {
		k.Tick()
	}
	log = nil
	k.Tick()
	if !slices.Contains(log, "last") {
		t.Errorf("slot %d task did not run: %v", slots-1, log)
	}
}

func TestKernelSlotSignal(t *testing.T) {
	k, err := NewKernel(7)
	if err != nil {
		t.Fatal(err)
	}
	bus := NewBus()
	slotSig := bus.Register("ms_slot_nbr")
	k.UseSlotSignal(slotSig)

	var ran []int
	for s := 0; s < 7; s++ {
		s := s
		if err := k.AddSlotted(s, TaskFunc{TaskName: "t", Fn: func(Millis) { ran = append(ran, s) }}); err != nil {
			t.Fatal(err)
		}
	}
	// Force the slot regardless of tick count; values wrap modulo 7,
	// whether they are in range, on its edge or far beyond it.
	var want []int
	for _, v := range []uint16{3, 10, 6, 7, 13, 65535} {
		slotSig.Write(v)
		k.Tick()
		want = append(want, int(v%7))
	}
	if !reflect.DeepEqual(ran, want) {
		t.Errorf("slots run = %v, want %v", ran, want)
	}
}

func TestKernelRunWithStop(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	k.AddEveryTick(TaskFunc{TaskName: "c", Fn: func(Millis) { count++ }})
	end := k.Run(100, func() bool { return count >= 10 })
	if count != 10 || end != 10 {
		t.Errorf("Run stopped at count=%d t=%d, want 10/10", count, end)
	}
	// Without a stop predicate, runs to the deadline.
	end = k.Run(20, nil)
	if end != 20 || count != 20 {
		t.Errorf("Run to deadline: t=%d count=%d, want 20/20", end, count)
	}
}

func TestBudgetStepExhaustionAtTickBoundary(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	k.AddEveryTick(TaskFunc{TaskName: "c", Fn: func(Millis) { count++ }})
	// One work unit per tick: a 10-step budget stops after tick 11
	// trips the check (used=11 > 10), deterministically.
	k.SetBudget(Budget{Steps: 10})
	end := k.Run(1000, nil)
	if !k.Exhausted() {
		t.Fatal("kernel not exhausted after exceeding step budget")
	}
	if end != 11 || count != 11 {
		t.Errorf("stopped at t=%d count=%d, want 11/11", end, count)
	}
	// Re-arming resets the accounting.
	k.SetBudget(Budget{Steps: 5})
	if k.Exhausted() || k.BudgetUsed() != 0 {
		t.Errorf("SetBudget did not reset: exhausted=%v used=%d", k.Exhausted(), k.BudgetUsed())
	}
}

func TestChargeUnwindsNonTerminatingTask(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	// A task spinning forever, as an injected error can cause: only
	// the in-loop Charge lets the watchdog break it.
	k.AddEveryTick(TaskFunc{TaskName: "spin", Fn: func(Millis) {
		for {
			k.Charge(1)
		}
	}})
	k.SetBudget(Budget{Steps: 1000})
	end := k.Run(100, nil)
	if !k.Exhausted() {
		t.Fatal("kernel not exhausted by non-terminating task")
	}
	if end != 0 {
		t.Errorf("stopped at t=%d, want 0 (first tick never completed)", end)
	}
	if k.BudgetUsed() <= 1000 {
		t.Errorf("BudgetUsed() = %d, want > 1000", k.BudgetUsed())
	}
}

func TestBudgetZeroValueIsUnlimited(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	k.AddEveryTick(TaskFunc{TaskName: "n", Fn: func(Millis) {}})
	k.SetBudget(Budget{})
	if end := k.Run(500, nil); end != 500 || k.Exhausted() {
		t.Errorf("zero budget: t=%d exhausted=%v, want 500/false", end, k.Exhausted())
	}
}

func TestTaskPanicPropagatesThroughRun(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	k.AddEveryTick(TaskFunc{TaskName: "boom", Fn: func(Millis) { panic("target crash") }})
	k.SetBudget(Budget{Steps: 100})
	defer func() {
		r := recover()
		if r != "target crash" {
			t.Errorf("recovered %v, want the task's own panic", r)
		}
		if k.Exhausted() {
			t.Error("crash misclassified as budget exhaustion")
		}
	}()
	k.Run(10, nil)
	t.Fatal("Run returned despite panicking task")
}

func TestBudgetWallClockBackstop(t *testing.T) {
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	k.AddEveryTick(TaskFunc{TaskName: "slow", Fn: func(Millis) { time.Sleep(time.Millisecond) }})
	k.SetBudget(Budget{Wall: 5 * time.Millisecond})
	k.Run(1_000_000, nil)
	if !k.Exhausted() {
		t.Fatal("wall-clock budget did not trip")
	}
}

// TestBusHandlesSurviveSlabGrowth registers more signals than one
// handle slab holds, in an order that inserts columns in front of
// earlier ones, and checks that every handle still reads and writes
// its own value, that Values lays the row out in sorted-name order and
// that snapshots keep registration order.
func TestBusHandlesSurviveSlabGrowth(t *testing.T) {
	b := NewBus()
	n := 3*slabSize + 5
	sigs := make([]*Signal, n)
	for i := range sigs {
		// Descending names: every registration becomes column 0.
		sigs[i] = b.Register(fmt.Sprintf("s%03d", n-i))
		sigs[i].Write(uint16(1000 + i))
	}
	for i, s := range sigs {
		if got := s.Read(); got != uint16(1000+i) {
			t.Fatalf("handle %d (%s) reads %d, want %d", i, s.Name(), got, 1000+i)
		}
		if s.Index() != i {
			t.Errorf("handle %d has index %d", i, s.Index())
		}
		if h, _ := b.Lookup(s.Name()); h != s {
			t.Errorf("Lookup(%s) returned another handle", s.Name())
		}
	}
	sigs[7].Write(7)
	for i, s := range sigs {
		want := uint16(1000 + i)
		if i == 7 {
			want = 7
		}
		if got := s.Read(); got != want {
			t.Errorf("after one write, handle %d reads %d, want %d", i, got, want)
		}
	}
	cols, row := b.Columns(), b.Values()
	if !sort.StringsAreSorted(cols) || len(cols) != n || len(row) != n {
		t.Fatalf("columns not a sorted row of %d: %v", n, cols)
	}
	for c, name := range cols {
		s, _ := b.Lookup(name)
		if row[c] != s.Read() {
			t.Errorf("column %d (%s) = %d, handle reads %d", c, name, row[c], s.Read())
		}
	}
	k, err := NewKernel(1)
	if err != nil {
		t.Fatal(err)
	}
	snap := NewSnapshotter(k, b).Capture()
	for i, s := range sigs {
		if snap.Signals[i] != s.Read() {
			t.Fatalf("snapshot signal %d = %d, want %d (registration order)", i, snap.Signals[i], s.Read())
		}
	}
	if !b.MatchesSnapshot(snap) {
		t.Error("bus does not match its own snapshot")
	}
	sigs[0].Write(0)
	if b.MatchesSnapshot(snap) {
		t.Error("bus matches a snapshot it has diverged from")
	}
	if err := NewSnapshotter(k, b).Restore(snap); err != nil {
		t.Fatal(err)
	}
	if sigs[0].Read() != 1000 {
		t.Errorf("restore left handle 0 at %d", sigs[0].Read())
	}
}

// TestReaderDetachesAfterHookReturnsTrue: a Reader passes every read
// to its hook — corruption included — until the hook reports detach,
// and never calls it again after that.
func TestReaderDetachesAfterHookReturnsTrue(t *testing.T) {
	bus := NewBus()
	sig := bus.Register("x")
	sig.Write(0x10)
	var calls []string
	r := NewReader("MOD", func(module, signal string, s *Signal, now Millis) bool {
		calls = append(calls, fmt.Sprintf("%s/%s@%d", module, signal, now))
		if now == 1 {
			s.Write(s.Read() ^ 1) // fire: corrupt this very read
			return true
		}
		return false
	})
	if r.Name() != "MOD" {
		t.Errorf("Name() = %q, want MOD", r.Name())
	}
	var got []uint16
	for now := Millis(0); now < 4; now++ {
		got = append(got, r.Read(sig, now))
	}
	if !r.ReadBool(sig, 4) {
		t.Error("ReadBool of a non-zero signal = false")
	}
	if want := []uint16{0x10, 0x11, 0x11, 0x11}; !reflect.DeepEqual(got, want) {
		t.Errorf("reads = %#x, want %#x", got, want)
	}
	if want := []string{"MOD/x@0", "MOD/x@1"}; !reflect.DeepEqual(calls, want) {
		t.Errorf("hook calls = %v, want %v", calls, want)
	}
	var nop Reader
	if nop.Read(sig, 0) != 0x11 {
		t.Error("a Reader without a hook does not read the signal")
	}
}

// readerTask is a scheduled task reading one signal through the Reader
// it embeds.
type readerTask struct {
	Reader
	in *Signal
}

func (t *readerTask) Step(now Millis) { t.Read(t.in, now) }

// TestRestoreReattachesReaders: restoring a snapshot re-attaches the
// hook of every scheduled task's Reader, in every schedule list, so a
// reader its hook detached from reads through the hook again.
func TestRestoreReattachesReaders(t *testing.T) {
	k, err := NewKernel(2)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBus()
	in := b.Register("in")
	calls := map[string]int{}
	hook := func(module, _ string, _ *Signal, _ Millis) bool {
		calls[module]++
		return true // detach at the first read
	}
	k.AddEveryTick(&readerTask{Reader: NewReader("EVERY", hook), in: in})
	if err := k.AddSlotted(1, &readerTask{Reader: NewReader("SLOT", hook), in: in}); err != nil {
		t.Fatal(err)
	}
	k.AddBackground(&readerTask{Reader: NewReader("BG", hook), in: in})
	snaps := NewSnapshotter(k, b)
	snap := snaps.Capture()
	for round := 1; round <= 2; round++ {
		k.Run(10, nil)
		for _, m := range []string{"EVERY", "SLOT", "BG"} {
			if calls[m] != round {
				t.Errorf("round %d: %s called its hook %d times, want %d", round, m, calls[m], round)
			}
		}
		if err := snaps.Restore(snap); err != nil {
			t.Fatal(err)
		}
	}
}
