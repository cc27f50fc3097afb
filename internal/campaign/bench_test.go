package campaign

import (
	"testing"

	"propane/internal/arrestor"
	"propane/internal/inject"
)

// BenchmarkInjectionRun measures one paper injection run as the
// campaign executes it: restore the checkpoint at the injection
// instant, simulate to the 6,000 ms horizon under the trap and compare
// every tick against the golden trace. Pruning is off, so the run
// always reaches the horizon.
func BenchmarkInjectionRun(b *testing.B) {
	cfg := tinyConfig()
	sys := cfg.System()
	golden, _, err := goldenRun(cfg, 0, false)
	if err != nil {
		b.Fatal(err)
	}
	ckpts := newCheckpointCache(cfg)
	inj := inject.Injection{Module: arrestor.ModCalc, Signal: arrestor.SigPulscnt, At: 1500, Model: inject.BitFlip{Bit: 14}}
	if _, err := injectionRun(cfg, sys, golden, 0, inj, ckpts, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := injectionRun(cfg, sys, golden, 0, inj, ckpts, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !out.fired {
			b.Fatal("trap did not fire")
		}
	}
}
