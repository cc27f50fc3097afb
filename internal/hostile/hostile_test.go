package hostile

import (
	"strings"
	"testing"

	"propane/internal/inject"
	"propane/internal/physics"
)

var testCase = physics.TestCase{MassKg: 12000, VelocityMS: 55}

func TestGoldenRunIsBenign(t *testing.T) {
	inst, err := NewInstance(testCase, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst.Kernel().SetBudget(RunBudget(500))
	inst.Run(500)
	if inst.Kernel().Exhausted() {
		t.Fatal("uninjected hostile run exhausted its budget")
	}
	out, err := inst.Bus().Lookup(SigOut)
	if err != nil {
		t.Fatal(err)
	}
	if out.Read() == 0 {
		t.Error("system output never driven")
	}
}

func TestTopologyShape(t *testing.T) {
	sys := Topology()
	if got := len(sys.ModuleNames()); got != 4 {
		t.Errorf("modules = %d, want 4", got)
	}
	if ins := sys.SystemInputs(); len(ins) != 1 || ins[0] != SigCmd {
		t.Errorf("system inputs = %v, want [%s]", ins, SigCmd)
	}
	if outs := sys.SystemOutputs(); len(outs) != 1 || outs[0] != SigOut {
		t.Errorf("system outputs = %v, want [%s]", outs, SigOut)
	}
}

func TestMineCrashesOnPoisonBit(t *testing.T) {
	trap := inject.NewTrap(inject.Injection{
		Module: ModMine, Signal: SigVal, At: 100, Model: inject.BitFlip{Bit: 15},
	})
	inst, err := NewInstance(testCase, trap.Read)
	if err != nil {
		t.Fatal(err)
	}
	inst.Kernel().SetBudget(RunBudget(500))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("poisoned MINE did not panic")
		}
		if !strings.Contains(r.(string), "mine tripped") {
			t.Errorf("panic %v, want a mine trip", r)
		}
		if _, fired := trap.Fired(); !fired {
			t.Error("trap did not fire before the crash")
		}
	}()
	inst.Run(500)
}

func TestTarpitHangsOnPoisonBit(t *testing.T) {
	trap := inject.NewTrap(inject.Injection{
		Module: ModTarpit, Signal: SigTick, At: 100, Model: inject.BitFlip{Bit: 15},
	})
	inst, err := NewInstance(testCase, trap.Read)
	if err != nil {
		t.Fatal(err)
	}
	inst.Kernel().SetBudget(RunBudget(500))
	end := inst.Kernel().Run(500, nil)
	if !inst.Kernel().Exhausted() {
		t.Fatal("poisoned TARPIT did not exhaust the budget")
	}
	if end >= 500 {
		t.Errorf("run reached the horizon (t=%d) despite the hang", end)
	}
}

func TestLowBitInjectionMerelyDeviates(t *testing.T) {
	trap := inject.NewTrap(inject.Injection{
		Module: ModMine, Signal: SigVal, At: 100, Model: inject.BitFlip{Bit: 3},
	})
	inst, err := NewInstance(testCase, trap.Read)
	if err != nil {
		t.Fatal(err)
	}
	inst.Kernel().SetBudget(RunBudget(500))
	inst.Run(500)
	if inst.Kernel().Exhausted() {
		t.Error("low-bit injection tripped the watchdog")
	}
	if _, fired := trap.Fired(); !fired {
		t.Error("trap never fired")
	}
}
