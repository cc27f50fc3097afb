package arrestor

import (
	"testing"

	"propane/internal/sim"
)

func TestClockSlotWrapsAndMscntCounts(t *testing.T) {
	bus := sim.NewBus()
	c := &clock{
		Reader:     sim.NewReader(ModClock, nil),
		slotIn:     bus.Register(SigMsSlotNbr),
		mscntOut:   bus.Register(SigMscnt),
		slotOut:    bus.Register(SigMsSlotNbr),
		slotPeriod: NumSlots,
	}
	for i := 0; i < 15; i++ {
		c.Step(sim.Millis(i))
	}
	if got := c.mscntOut.Read(); got != 15 {
		t.Errorf("mscnt after 15 steps = %d, want 15", got)
	}
	// Slot sequence 1,2,...,6,0,1,... after 15 steps: 15 mod 7 = 1.
	if got := c.slotOut.Read(); got != 1 {
		t.Errorf("ms_slot_nbr after 15 steps = %d, want 1", got)
	}
}

func TestClockSlotFeedbackPermanentShift(t *testing.T) {
	bus := sim.NewBus()
	slot := bus.Register(SigMsSlotNbr)
	c := &clock{
		Reader:     sim.NewReader(ModClock, nil),
		slotIn:     slot,
		mscntOut:   bus.Register(SigMscnt),
		slotOut:    slot,
		slotPeriod: NumSlots,
	}
	c.Step(0)
	c.Step(1) // slot now 2
	// Corrupt the feedback signal: a bit-flip giving a large value.
	if err := slot.FlipBit(12); err != nil {
		t.Fatal(err)
	}
	c.Step(2)
	// (2+4096+1) mod 7 = 4099 mod 7 = 4; the shift persists forever —
	// the ms_slot_nbr -> ms_slot_nbr permeability of 1.0.
	if got := slot.Read(); got != 4099%7 {
		t.Errorf("slot after corrupted feedback = %d, want %d", got, 4099%7)
	}
	// mscnt is untouched by the corrupted slot input (permeability 0).
	if got := c.mscntOut.Read(); got != 3 {
		t.Errorf("mscnt = %d, want 3", got)
	}
	// The last slot and the uint16 maximum both wrap to slot 0: 6+1 is
	// the period, and 65535+1 overflows to 0 before the range check.
	for _, corrupted := range []uint16{6, 65535} {
		slot.Write(corrupted)
		c.Step(3)
		if got := slot.Read(); got != 0 {
			t.Errorf("slot after corrupted feedback %d = %d, want 0", corrupted, got)
		}
	}
}

// newDistS wires a DIST_S over a fresh bus for direct unit testing.
func newDistS() (*distS, *sim.Bus) {
	bus := sim.NewBus()
	cfg := DefaultConfig()
	return &distS{
		Reader:        sim.NewReader(ModDistS, nil),
		pacntIn:       bus.Register(SigPACNT),
		tic1In:        bus.Register(SigTIC1),
		tcntIn:        bus.Register(SigTCNT),
		pulscntOut:    bus.Register(SigPulscnt),
		slowOut:       bus.Register(SigSlowSpeed),
		stoppedOut:    bus.Register(SigStopped),
		slowGapTicks:  cfg.SlowGapTicks,
		stopPersistMs: cfg.StopPersistMs,
	}, bus
}

func TestDistSPulseAccumulation(t *testing.T) {
	d, _ := newDistS()
	d.pacntIn.Write(10)
	d.Step(0) // first step initialises lastPACNT: no delta counted
	if got := d.pulscntOut.Read(); got != 0 {
		t.Errorf("pulscnt after init = %d, want 0", got)
	}
	d.pacntIn.Write(13)
	d.Step(1)
	if got := d.pulscntOut.Read(); got != 3 {
		t.Errorf("pulscnt = %d, want 3", got)
	}
}

func TestDistSPACNTWrapSafety(t *testing.T) {
	d, _ := newDistS()
	d.pacntIn.Write(0xFFFE)
	d.Step(0)
	d.pacntIn.Write(0x0002) // wraps past 65535: delta = 4
	d.Step(1)
	if got := d.pulscntOut.Read(); got != 4 {
		t.Errorf("pulscnt across PACNT wrap = %d, want 4", got)
	}
}

func TestDistSSlowSpeedFromPulseGap(t *testing.T) {
	d, _ := newDistS()
	cfg := DefaultConfig()
	d.tic1In.Write(1000)
	d.tcntIn.Write(1000 + cfg.SlowGapTicks) // exactly at threshold: not slow
	d.Step(0)
	if d.slowOut.ReadBool() {
		t.Error("slow_speed at exact threshold, want false")
	}
	d.tcntIn.Write(1000 + cfg.SlowGapTicks + 1)
	d.Step(1)
	if !d.slowOut.ReadBool() {
		t.Error("slow_speed above threshold = false, want true")
	}
	// A fresh pulse (TIC1 close to TCNT) clears it.
	d.tic1In.Write(1000 + cfg.SlowGapTicks)
	d.Step(2)
	if d.slowOut.ReadBool() {
		t.Error("slow_speed after fresh pulse = true, want false")
	}
}

func TestDistSStoppedRequiresPersistence(t *testing.T) {
	d, _ := newDistS()
	cfg := DefaultConfig()
	d.pacntIn.Write(5)
	d.Step(0) // init
	d.pacntIn.Write(6)
	d.Step(1) // a pulse: persistence counter reset
	// Silence for StopPersistMs-1 cycles: not yet stopped.
	for i := 0; i < int(cfg.StopPersistMs)-1; i++ {
		d.Step(sim.Millis(2 + i))
	}
	if d.stoppedOut.ReadBool() {
		t.Fatal("stopped latched one cycle early")
	}
	d.Step(sim.Millis(2 + cfg.StopPersistMs))
	if !d.stoppedOut.ReadBool() {
		t.Fatal("stopped not latched after full persistence window")
	}
	// Latched: even new pulses do not clear it.
	d.pacntIn.Write(9)
	d.Step(sim.Millis(3 + cfg.StopPersistMs))
	if !d.stoppedOut.ReadBool() {
		t.Error("stopped un-latched by new pulses")
	}
}

func TestDistSStoppedImmuneToTransients(t *testing.T) {
	// A single transient PACNT corruption resets the persistence
	// counter but can never assert stopped — the OB2 mechanism.
	d, _ := newDistS()
	for i := 0; i < 150; i++ {
		d.Step(sim.Millis(i)) // silence accumulating
	}
	d.pacntIn.Write(0x4000) // transient corruption: huge delta
	d.Step(150)
	d.pacntIn.Write(0) // producer refreshes the true value
	for i := 151; i < 199; i++ {
		d.Step(sim.Millis(i))
	}
	if d.stoppedOut.ReadBool() {
		t.Error("transient corruption asserted stopped")
	}
}

func newPresS() *presS {
	bus := sim.NewBus()
	return &presS{
		Reader:     sim.NewReader(ModPresS, nil),
		adcIn:      bus.Register(SigADC),
		inValueOut: bus.Register(SigInValue),
	}
}

func TestPresSQuantisesLeftJustifiedADC(t *testing.T) {
	p := newPresS()
	p.adcIn.Write(0x7F00)
	p.Step(0)
	if got := p.inValueOut.Read(); got != 0x7F {
		t.Errorf("InValue = %#x, want 0x7F", got)
	}
	// Low-byte corruption is absorbed entirely by the quantisation.
	p.adcIn.Write(0x7F3C)
	p.Step(7)
	if got := p.inValueOut.Read(); got != 0x7F {
		t.Errorf("InValue with corrupted low byte = %#x, want 0x7F", got)
	}
}

func TestPresSMedianRejectsSingleSpike(t *testing.T) {
	p := newPresS()
	feed := func(v uint16) uint16 {
		p.adcIn.Write(v << 8)
		p.Step(0)
		return p.inValueOut.Read()
	}
	feed(10)
	feed(10)
	feed(10)
	if got := feed(250); got != 10 { // upward spike rejected
		t.Errorf("median after upward spike = %d, want 10", got)
	}
	if got := feed(10); got != 10 {
		t.Errorf("median recovering = %d, want 10", got)
	}
	if got := feed(10); got != 10 {
		t.Errorf("median recovered = %d, want 10", got)
	}
}

func TestPresSMedianTracksSlowRamp(t *testing.T) {
	p := newPresS()
	var got []uint16
	for v := uint16(0); v < 10; v++ {
		p.adcIn.Write(v << 8)
		p.Step(0)
		got = append(got, p.inValueOut.Read())
	}
	// After priming, median of {v-2, v-1, v} = v-1: one-sample lag.
	for i := 3; i < len(got); i++ {
		if got[i] != uint16(i-1) {
			t.Errorf("sample %d = %d, want %d (one-sample lag)", i, got[i], i-1)
		}
	}
}

func newCalc() *calc {
	bus := sim.NewBus()
	cfg := DefaultConfig()
	iSig := bus.Register(SigI)
	return &calc{
		Reader:      sim.NewReader(ModCalc, nil),
		pulscntIn:   bus.Register(SigPulscnt),
		mscntIn:     bus.Register(SigMscnt),
		slowIn:      bus.Register(SigSlowSpeed),
		stoppedIn:   bus.Register(SigStopped),
		iIn:         iSig,
		iOut:        iSig,
		setValueOut: bus.Register(SigSetValue),
		checkpoints: cfg.CheckpointPulses,
		profile:     cfg.Profile,
		windowMs:    cfg.WindowMs,
		vRefPulses:  cfg.VRefPulses,
		slowTarget:  cfg.SlowTarget,
	}
}

func TestCalcCheckpointAdvance(t *testing.T) {
	c := newCalc()
	cfg := DefaultConfig()
	c.Step(0)
	if got := c.iOut.Read(); got != 0 {
		t.Fatalf("initial checkpoint = %d, want 0", got)
	}
	// Crossing the first two thresholds at once advances i by two.
	c.pulscntIn.Write(cfg.CheckpointPulses[1])
	c.Step(1)
	if got := c.iOut.Read(); got != 2 {
		t.Errorf("checkpoint after crossing two thresholds = %d, want 2", got)
	}
	// i never retreats even if pulscnt drops (corruption downstream).
	c.pulscntIn.Write(0)
	c.Step(2)
	if got := c.iOut.Read(); got != 2 {
		t.Errorf("checkpoint after pulscnt drop = %d, want 2 (monotone)", got)
	}
}

func TestCalcClampsCorruptedCheckpoint(t *testing.T) {
	c := newCalc()
	c.iIn.Write(0x2000) // corrupted feedback
	c.Step(0)
	if got := c.iOut.Read(); got != NumCheckpoints {
		t.Errorf("corrupted i clamped to %d, want %d", got, NumCheckpoints)
	}
}

func TestCalcSpeedScaledSetValue(t *testing.T) {
	c := newCalc()
	cfg := DefaultConfig()
	// Push the first checkpoint out of the way so the pulse counts
	// used here exercise only the speed scaling, not the checkpoint
	// advance (covered by TestCalcCheckpointAdvance).
	c.checkpoints[0] = 60000
	// Prime a speed window: vRefPulses pulses over one window.
	c.mscntIn.Write(0)
	c.pulscntIn.Write(0)
	c.Step(0)
	c.mscntIn.Write(cfg.WindowMs)
	c.pulscntIn.Write(cfg.VRefPulses)
	c.Step(1)
	// At reference speed and checkpoint 0, SetValue = Profile[0].
	if got := c.setValueOut.Read(); got != cfg.Profile[0] {
		t.Errorf("SetValue at reference speed = %d, want %d", got, cfg.Profile[0])
	}
	// Double speed doubles the set point.
	c.mscntIn.Write(2 * cfg.WindowMs)
	c.pulscntIn.Write(3 * cfg.VRefPulses)
	c.Step(2)
	if got := c.setValueOut.Read(); got != 2*cfg.Profile[0] {
		t.Errorf("SetValue at double speed = %d, want %d", got, 2*cfg.Profile[0])
	}
}

func TestCalcOverrides(t *testing.T) {
	c := newCalc()
	cfg := DefaultConfig()
	c.mscntIn.Write(0)
	c.Step(0)
	c.mscntIn.Write(cfg.WindowMs)
	c.pulscntIn.Write(cfg.VRefPulses)
	c.slowIn.Write(1)
	c.Step(1)
	if got := c.setValueOut.Read(); got != cfg.SlowTarget {
		t.Errorf("SetValue under slow_speed = %d, want %d", got, cfg.SlowTarget)
	}
	c.stoppedIn.Write(1)
	c.Step(2)
	if got := c.setValueOut.Read(); got != 0 {
		t.Errorf("SetValue under stopped = %d, want 0", got)
	}
}

func newVReg() *vReg {
	bus := sim.NewBus()
	return &vReg{
		Reader:      sim.NewReader(ModVReg, nil),
		setValueIn:  bus.Register(SigSetValue),
		inValueIn:   bus.Register(SigInValue),
		outValueOut: bus.Register(SigOutValue),
	}
}

func TestVRegFeedforwardAndTrim(t *testing.T) {
	v := newVReg()
	v.setValueIn.Write(20000)
	v.inValueIn.Write(20000 >> 8) // measured equals set point
	v.Step(0)
	out := v.outValueOut.Read()
	// err = 20000 - (78<<8) = 32; integ = 2; out = 20000 + 0.
	if out < 19900 || out > 20100 {
		t.Errorf("OutValue at steady state = %d, want ~20000", out)
	}
	// With measured below set point, the trim pushes output above it.
	v2 := newVReg()
	v2.setValueIn.Write(20000)
	v2.inValueIn.Write(0)
	for i := 0; i < 50; i++ {
		v2.Step(sim.Millis(i))
	}
	if got := v2.outValueOut.Read(); got <= 20000 {
		t.Errorf("OutValue with low pressure = %d, want > 20000", got)
	}
}

func TestVRegClampsAndAntiWindup(t *testing.T) {
	v := newVReg()
	v.setValueIn.Write(65535)
	v.inValueIn.Write(0)
	for i := 0; i < 1000; i++ {
		v.Step(sim.Millis(i))
	}
	if got := v.outValueOut.Read(); got != 65535 {
		t.Errorf("OutValue = %d, want saturated 65535", got)
	}
	if v.integ > vregIntegLimit || v.integ < -vregIntegLimit {
		t.Errorf("integ = %d escaped anti-windup clamp", v.integ)
	}
	// Reverse saturation.
	v.setValueIn.Write(0)
	v.inValueIn.Write(255)
	for i := 0; i < 1000; i++ {
		v.Step(sim.Millis(i))
	}
	if got := v.outValueOut.Read(); got != 0 {
		t.Errorf("OutValue = %d, want clamped 0", got)
	}
}

func newPresA() *presA {
	bus := sim.NewBus()
	return &presA{
		Reader:     sim.NewReader(ModPresA, nil),
		outValueIn: bus.Register(SigOutValue),
		toc2Out:    bus.Register(SigTOC2),
		maxSlew:    DefaultConfig().MaxSlew,
	}
}

func TestPresASlewLimiting(t *testing.T) {
	p := newPresA()
	slew := DefaultConfig().MaxSlew
	p.outValueIn.Write(65535)
	p.Step(0)
	if got := p.toc2Out.Read(); got != slew {
		t.Errorf("TOC2 after one step = %d, want %d (slew limit)", got, slew)
	}
	p.Step(1)
	if got := p.toc2Out.Read(); got != 2*slew {
		t.Errorf("TOC2 after two steps = %d, want %d", got, 2*slew)
	}
	// Downward slew, small target reached exactly.
	p.outValueIn.Write(2*slew - 5)
	p.Step(2)
	if got := p.toc2Out.Read(); got != 2*slew-5 {
		t.Errorf("TOC2 small downward step = %d, want %d", got, 2*slew-5)
	}
}

func TestPresASlewMasksTransientsDuringRamp(t *testing.T) {
	// During a large ramp, a corrupted target in the same direction and
	// beyond the slew window produces the same TOC2 step — the masking
	// that keeps OutValue->TOC2 permeability below 1.
	p1, p2 := newPresA(), newPresA()
	p1.outValueIn.Write(60000)
	p1.Step(0)
	p2.outValueIn.Write(65535) // "corrupted" but far beyond slew reach
	p2.Step(0)
	if p1.toc2Out.Read() != p2.toc2Out.Read() {
		t.Errorf("slew-limited outputs differ: %d vs %d", p1.toc2Out.Read(), p2.toc2Out.Read())
	}
}

func TestReadHookInvocation(t *testing.T) {
	bus := sim.NewBus()
	type readKey struct{ module, signal string }
	counts := map[readKey]int{}
	hook := func(module, signal string, _ *sim.Signal, _ sim.Millis) bool {
		counts[readKey{module, signal}]++
		return false
	}
	d := &distS{
		Reader:        sim.NewReader(ModDistS, hook),
		pacntIn:       bus.Register(SigPACNT),
		tic1In:        bus.Register(SigTIC1),
		tcntIn:        bus.Register(SigTCNT),
		pulscntOut:    bus.Register(SigPulscnt),
		slowOut:       bus.Register(SigSlowSpeed),
		stoppedOut:    bus.Register(SigStopped),
		slowGapTicks:  1,
		stopPersistMs: 1,
	}
	d.Step(0)
	d.Step(1)
	for _, sig := range []string{SigPACNT, SigTIC1, SigTCNT} {
		if got := counts[readKey{ModDistS, sig}]; got != 2 {
			t.Errorf("reads of %s = %d, want 2", sig, got)
		}
	}
}
