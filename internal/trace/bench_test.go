package trace

import (
	"fmt"
	"testing"

	"propane/internal/sim"
)

// benchWrite is one signal write a simulated tick performs.
type benchWrite struct {
	sig *sim.Signal
	v   uint16
}

// benchRun is a scripted run over one bus: the writes each tick makes
// before the comparator's post-hook samples the bus.
type benchRun struct {
	bus   *sim.Bus
	ticks [][]benchWrite
}

// newBenchRun scripts a horizon over a bus of `signals` signals in which
// signal i changes every i+1 ticks, as slow and fast signals of a
// target do. From tick `from` on, the first `deviate` signals carry a
// flipped low bit.
func newBenchRun(signals, horizon, deviate, from int) *benchRun {
	r := &benchRun{bus: sim.NewBus(), ticks: make([][]benchWrite, horizon)}
	sigs := make([]*sim.Signal, signals)
	for i := range sigs {
		sigs[i] = r.bus.Register(fmt.Sprintf("sig%02d", i))
	}
	for t := 0; t < horizon; t++ {
		for i, s := range sigs {
			changes := t%(i+1) == 0
			flip := i < deviate && t >= from
			if !changes && !(flip && t == from) {
				continue
			}
			v := uint16(t / (i + 1) * 37)
			if flip {
				v ^= 1
			}
			r.ticks[t] = append(r.ticks[t], benchWrite{s, v})
		}
	}
	return r
}

// play runs the script with the hook as the kernel post-hook.
func (r *benchRun) play(hook sim.Hook) {
	for t, ws := range r.ticks {
		for _, w := range ws {
			w.sig.Write(w.v)
		}
		hook(sim.Millis(t))
	}
}

// BenchmarkStreamComparator measures the Golden Run Comparison of one
// 6,000-tick, 14-signal injection run: one that matches the golden
// run throughout, and one on which 3 signals deviate from tick 100 on.
// Each iteration acquires a pooled comparator, as the campaign does.
func BenchmarkStreamComparator(b *testing.B) {
	const signals, horizon = 14, 6000
	golden := newBenchRun(signals, horizon, 0, 0)
	rec, err := NewRecorderCap(golden.bus, horizon)
	if err != nil {
		b.Fatal(err)
	}
	golden.play(rec.Hook())
	gt := rec.Trace()
	for _, bc := range []struct {
		name    string
		deviate int
	}{{"match", 0}, {"deviate3", 3}} {
		run := newBenchRun(signals, horizon, bc.deviate, 100)
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := AcquireStreamComparator(gt, run.bus)
				if err != nil {
					b.Fatal(err)
				}
				run.play(c.Hook())
				if got := len(c.DeviatingDiffs()); got != bc.deviate {
					b.Fatalf("%d signals deviate, want %d", got, bc.deviate)
				}
				ReleaseStreamComparator(c)
			}
		})
	}
}
