package arrestor

import (
	"propane/internal/physics"
	"propane/internal/sim"
)

// glue is the hardware-simulation layer the paper describes in Section
// 7.1: "Glue software was developed to simulate registers for
// A/D-conversion, timers, counter registers etc., accessed by the
// application." It runs as the kernel's first pre-hook, before any
// software module, refreshing the input registers from the physical
// world and applying the software's TOC2 command to the valve.
type glue struct {
	world *physics.World

	pacnt, tic1, tcnt, adc, toc2 *sim.Signal

	ticksPerMs uint16
	tcntVal    uint16
	pacntVal   uint16

	// toc2Key and toc2Frac cache float64(toc2Key)/65535: PRES_A
	// rewrites TOC2 once per slot cycle, so most ticks reuse the
	// quotient. They are derived, never state (State and Restore skip
	// them): the zero value, 0/65535 = 0, is already a correct entry.
	toc2Key  uint16
	toc2Frac float64
}

// preTick advances the world one millisecond and refreshes the
// hardware registers.
func (g *glue) preTick(now sim.Millis) {
	// Valve command: TOC2 as written by PRES_A on its last invocation.
	if v := g.toc2.Read(); v != g.toc2Key {
		g.toc2Key, g.toc2Frac = v, float64(v)/65535
	}
	g.world.SetCommand(g.toc2Frac)

	pulses := g.world.Step(0.001)

	// Free-running 16-bit timer counter: wraps naturally.
	g.tcntVal += g.ticksPerMs
	g.tcnt.Write(g.tcntVal)

	// Pulse accumulator and input capture: on pulses, bump the
	// accumulator and latch the capture register to "now".
	if pulses > 0 {
		g.pacntVal += uint16(pulses)
		g.pacnt.Write(g.pacntVal)
		g.tic1.Write(g.tcntVal)
	}

	// A/D conversion of applied pressure: 8-bit result left-justified
	// in the 16-bit register, as on common 8-bit MCUs.
	sample := uint16(g.world.PressureFrac()*255 + 0.5)
	if sample > 255 {
		sample = 255
	}
	g.adc.Write(sample << 8)
}
