package inject

import (
	"testing"
	"testing/quick"

	"propane/internal/model"
	"propane/internal/sim"
)

func TestBitFlipMutate(t *testing.T) {
	tests := []struct {
		bit  uint
		in   uint16
		want uint16
	}{
		{0, 0x0000, 0x0001},
		{0, 0x0001, 0x0000},
		{15, 0x0000, 0x8000},
		{7, 0xFFFF, 0xFF7F},
	}
	for _, tt := range tests {
		if got := (BitFlip{Bit: tt.bit}).Mutate(tt.in); got != tt.want {
			t.Errorf("BitFlip(%d).Mutate(%#x) = %#x, want %#x", tt.bit, tt.in, got, tt.want)
		}
	}
}

func TestBitFlipAlwaysChangesValue(t *testing.T) {
	prop := func(v uint16, bit uint8) bool {
		m := BitFlip{Bit: uint(bit % 16)}
		return m.Mutate(v) != v && m.Mutate(m.Mutate(v)) == v
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStuckAtMutate(t *testing.T) {
	if got := (StuckAt{Bit: 3, One: true}).Mutate(0); got != 0x0008 {
		t.Errorf("stuck-at-1 bit 3 of 0 = %#x, want 0x0008", got)
	}
	if got := (StuckAt{Bit: 3, One: false}).Mutate(0xFFFF); got != 0xFFF7 {
		t.Errorf("stuck-at-0 bit 3 of 0xFFFF = %#x, want 0xFFF7", got)
	}
	// Stuck-at is idempotent (unlike a flip).
	m := StuckAt{Bit: 5, One: true}
	if m.Mutate(m.Mutate(0)) != m.Mutate(0) {
		t.Error("StuckAt not idempotent")
	}
}

func TestReplaceAndOffset(t *testing.T) {
	if got := (Replace{Value: 0xDEAD}).Mutate(7); got != 0xDEAD {
		t.Errorf("Replace = %#x, want 0xDEAD", got)
	}
	if got := (Offset{Delta: -3}).Mutate(1); got != 0xFFFE {
		t.Errorf("Offset(-3).Mutate(1) = %#x, want 0xFFFE (wrap)", got)
	}
	if got := (Offset{Delta: 10}).Mutate(0xFFFB); got != 5 {
		t.Errorf("Offset(10).Mutate(0xFFFB) = %d, want 5 (wrap)", got)
	}
}

func TestModelStrings(t *testing.T) {
	tests := []struct {
		m    ErrorModel
		want string
	}{
		{BitFlip{Bit: 3}, "bitflip(3)"},
		{StuckAt{Bit: 2, One: true}, "stuckat(2=1)"},
		{StuckAt{Bit: 2}, "stuckat(2=0)"},
		{Replace{Value: 9}, "replace(9)"},
		{Offset{Delta: -1}, "offset(-1)"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestTrapFiresOnceAtMatchingRead(t *testing.T) {
	bus := sim.NewBus()
	sig := bus.Register("pulscnt")
	sig.Write(0x0100)

	trap := NewTrap(Injection{Module: "CALC", Signal: "pulscnt", At: 100, Model: BitFlip{Bit: 0}})
	hook := trap.Read

	// Wrong module, wrong signal, too early: no fire.
	hook("V_REG", "pulscnt", sig, 150)
	hook("CALC", "SetValue", sig, 150)
	hook("CALC", "pulscnt", sig, 99)
	if _, fired := trap.Fired(); fired {
		t.Fatal("trap fired prematurely")
	}
	if sig.Read() != 0x0100 {
		t.Fatal("signal corrupted before trap fired")
	}

	// Matching read at/after the arm time: fires exactly once.
	hook("CALC", "pulscnt", sig, 101)
	at, fired := trap.Fired()
	if !fired || at != 101 {
		t.Fatalf("Fired() = %d,%v; want 101,true", at, fired)
	}
	if sig.Read() != 0x0101 {
		t.Errorf("signal after trap = %#x, want 0x0101", sig.Read())
	}
	// One-shot: a later read does not corrupt again.
	hook("CALC", "pulscnt", sig, 102)
	if sig.Read() != 0x0101 {
		t.Errorf("trap fired twice: %#x", sig.Read())
	}
}

func TestTrapInjectionAccessor(t *testing.T) {
	inj := Injection{Module: "M", Signal: "s", At: 5, Model: BitFlip{Bit: 2}}
	trap := NewTrap(inj)
	if got := trap.Injection(); got.Module != "M" || got.Signal != "s" || got.At != 5 {
		t.Errorf("Injection() = %+v, want %+v", got, inj)
	}
	if inj.String() != "s@M t=5ms bitflip(2)" {
		t.Errorf("Injection.String() = %q", inj.String())
	}
}

func TestBitFlipPlan(t *testing.T) {
	sys := model.PaperExampleSystem()
	times := []sim.Millis{100, 200}
	bits := []uint{0, 7, 15}
	plan := BitFlipPlan(sys, times, bits)
	// Inputs: A 1, B 2, C 1, D 1, E 3 = 8 input ports; 8·2·3 = 48.
	if len(plan) != 48 {
		t.Fatalf("plan size = %d, want 48", len(plan))
	}
	// Every entry targets a real module input.
	for _, inj := range plan {
		mod, err := sys.Module(inj.Module)
		if err != nil {
			t.Fatalf("plan references unknown module %s", inj.Module)
		}
		if mod.InputIndex(inj.Signal) == 0 {
			t.Errorf("plan injects %s into %s, which has no such input", inj.Signal, inj.Module)
		}
	}
}

func TestModelPlan(t *testing.T) {
	sys := model.PaperExampleSystem()
	models := []ErrorModel{Replace{Value: 0}, Offset{Delta: 100}}
	plan := ModelPlan(sys, []sim.Millis{50}, models)
	if len(plan) != 8*2 {
		t.Fatalf("plan size = %d, want 16", len(plan))
	}
}

func TestPaperParameters(t *testing.T) {
	times := PaperTimes()
	if len(times) != 10 || times[0] != 500 || times[9] != 5000 {
		t.Errorf("PaperTimes() = %v, want 500..5000 step 500", times)
	}
	bits := AllBits()
	if len(bits) != 16 || bits[0] != 0 || bits[15] != 15 {
		t.Errorf("AllBits() = %v", bits)
	}
}

func TestPersistentTrapWindow(t *testing.T) {
	bus := sim.NewBus()
	sig := bus.Register("ADC")
	trap := NewPersistentTrap(
		Injection{Module: "PRES_S", Signal: "ADC", At: 100, Model: StuckAt{Bit: 15, One: true}},
		50,
	)
	hook := trap.Read

	sig.Write(0)
	hook("PRES_S", "ADC", sig, 99) // before the window
	if sig.Read() != 0 {
		t.Fatal("corrupted before the window")
	}
	hook("PRES_S", "ADC", sig, 100) // window start
	if sig.Read() != 0x8000 {
		t.Fatalf("not corrupted at window start: %#x", sig.Read())
	}
	at, fired := trap.Fired()
	if !fired || at != 100 {
		t.Errorf("Fired() = %d,%v; want 100,true", at, fired)
	}
	// Producer refreshes, trap re-applies within the window.
	sig.Write(0x0010)
	hook("PRES_S", "ADC", sig, 150) // window end, inclusive
	if sig.Read() != 0x8010 {
		t.Errorf("not re-corrupted at window end: %#x", sig.Read())
	}
	sig.Write(0x0010)
	hook("PRES_S", "ADC", sig, 151) // past the window
	if sig.Read() != 0x0010 {
		t.Errorf("corrupted past the window: %#x", sig.Read())
	}
	// First-fired time is latched.
	if at, _ := trap.Fired(); at != 100 {
		t.Errorf("firedAt moved to %d", at)
	}
	// Wrong module/signal never fires.
	other := bus.Register("x")
	hook("OTHER", "ADC", other, 120)
	hook("PRES_S", "x", other, 120)
	if other.Read() != 0 {
		t.Error("persistent trap fired on wrong target")
	}
	if trap.Injection().Signal != "ADC" {
		t.Error("Injection() accessor broken")
	}
}

// TestTrapDetachesTransient: a transient trap asks a reader to stop calling it
// as soon as it can no longer fire for that reader — at once for a
// module other than its target, and on its target after firing — and
// never before firing on its own target.
func TestTrapDetachesTransient(t *testing.T) {
	bus := sim.NewBus()
	sig := bus.Register("pulscnt")
	trap := NewTrap(Injection{Module: "CALC", Signal: "pulscnt", At: 100, Model: BitFlip{Bit: 0}})
	hook := trap.Read

	if !hook("V_REG", "pulscnt", sig, 150) {
		t.Error("foreign module not detached")
	}
	if hook("CALC", "SetValue", sig, 150) || hook("CALC", "pulscnt", sig, 99) {
		t.Error("target module detached before the trap fired")
	}
	if !hook("CALC", "pulscnt", sig, 101) {
		t.Error("firing read did not detach")
	}
	if _, fired := trap.Fired(); !fired || sig.Read() != 1 {
		t.Fatalf("trap did not fire: value %#x", sig.Read())
	}
	if !hook("CALC", "SetValue", sig, 102) {
		t.Error("fired trap not detached")
	}
	if sig.Read() != 1 {
		t.Errorf("fired trap corrupted again: %#x", sig.Read())
	}
}

// TestTrapDetachesPersistent: a persistent trap stays attached to its
// target module, corrupting every matching read, until At+duration
// has passed; a foreign module detaches at once.
func TestTrapDetachesPersistent(t *testing.T) {
	bus := sim.NewBus()
	sig := bus.Register("ADC")
	trap := NewPersistentTrap(
		Injection{Module: "PRES_S", Signal: "ADC", At: 100, Model: StuckAt{Bit: 15, One: true}},
		50,
	)
	hook := trap.Read

	if !hook("OTHER", "ADC", sig, 120) {
		t.Error("foreign module not detached")
	}
	for now := sim.Millis(90); now <= 150; now += 10 {
		sig.Write(0x0010)
		if hook("PRES_S", "ADC", sig, now) {
			t.Fatalf("detached at t=%d, inside or before the window", now)
		}
		want := uint16(0x0010)
		if now >= 100 {
			want = 0x8010
		}
		if sig.Read() != want {
			t.Errorf("t=%d: value %#x, want %#x", now, sig.Read(), want)
		}
	}
	sig.Write(0x0010)
	if !hook("PRES_S", "ADC", sig, 151) {
		t.Error("not detached past the window")
	}
	if sig.Read() != 0x0010 {
		t.Errorf("corrupted past the window: %#x", sig.Read())
	}
}
