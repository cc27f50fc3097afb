package main

import (
	"fmt"
	"time"

	"propane/internal/campaign"
	"propane/internal/target"
	"propane/internal/trace"
)

// probeSimTrace times the simulation and trace layers through their
// public entry points on cfg's target, outside any campaign: one
// uninjected horizon per test case, bare kernel ticks, checkpoint
// capture plus restore, and one horizon each with a trace Recorder and
// with a StreamComparator attached. Each figure is the median of a few
// repetitions, so one slow pass does not set it.
func probeSimTrace(cfg campaign.Config) (map[string]metric, error) {
	horizon := cfg.HorizonMs
	cases := cfg.TestCases
	if len(cases) == 0 {
		return nil, fmt.Errorf("probe: campaign has no test cases")
	}
	tc := cases[len(cases)/2]
	const reps = 5

	// One golden pass per test case.
	var golden []float64
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for _, c := range cases {
			inst, err := cfg.NewInstance(c, nil)
			if err != nil {
				return nil, err
			}
			inst.Run(horizon)
		}
		golden = append(golden, float64(time.Since(start).Microseconds())/1e3/float64(len(cases)))
	}

	// Bare kernel ticks over one horizon.
	var tick []float64
	for rep := 0; rep < reps; rep++ {
		inst, err := cfg.NewInstance(tc, nil)
		if err != nil {
			return nil, err
		}
		k := inst.Kernel()
		start := time.Now()
		for k.Now() < horizon {
			k.Tick()
		}
		tick = append(tick, float64(time.Since(start).Nanoseconds())/float64(horizon))
	}

	// Checkpoint capture + restore at mid-horizon.
	var restore []float64
	inst, err := cfg.NewInstance(tc, nil)
	if err != nil {
		return nil, err
	}
	cp, ok := inst.(target.Checkpointable)
	if !ok {
		return nil, fmt.Errorf("probe: target is not checkpointable")
	}
	cp.Run(horizon / 2)
	const pairs = 500
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for i := 0; i < pairs; i++ {
			snap, err := cp.Checkpoint()
			if err != nil {
				return nil, err
			}
			if err := cp.Restore(snap); err != nil {
				return nil, err
			}
		}
		restore = append(restore, float64(time.Since(start).Nanoseconds())/1e3/pairs)
	}

	// One horizon with a Recorder, then one with a StreamComparator
	// against the recorded golden trace.
	var record, compare []float64
	var goldenTrace *trace.Trace
	for rep := 0; rep < reps; rep++ {
		inst, err := cfg.NewInstance(tc, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		rec, err := trace.NewRecorderCap(inst.Bus(), int(horizon))
		if err != nil {
			return nil, err
		}
		inst.Kernel().AddPostHook(rec.Hook())
		inst.Run(horizon)
		record = append(record, msSince(start))
		goldenTrace = rec.Trace()
	}
	for rep := 0; rep < reps; rep++ {
		inst, err := cfg.NewInstance(tc, nil)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		sc, err := trace.NewStreamComparator(goldenTrace, inst.Bus())
		if err != nil {
			return nil, err
		}
		inst.Kernel().AddPostHook(sc.Hook())
		inst.Run(horizon)
		if len(sc.DeviatingDiffs()) != 0 {
			return nil, fmt.Errorf("probe: uninjected run deviates from its golden trace")
		}
		compare = append(compare, msSince(start))
	}

	return map[string]metric{
		"sim.golden_pass_ms":        {median(golden), "ms"},
		"sim.tick_ns":               {median(tick), "ns"},
		"sim.checkpoint_restore_us": {median(restore), "us"},
		"trace.record_ms":           {median(record), "ms"},
		"trace.compare_ms":          {median(compare), "ms"},
	}, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Microseconds()) / 1e3 }
