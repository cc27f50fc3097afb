package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"propane/internal/arrestor"
	"propane/internal/core"
	"propane/internal/model"
	"propane/internal/physics"
	"propane/internal/sim"
	"propane/internal/trace"
)

// trajectoryStep is the interval in ms between -trajectory's rows.
const trajectoryStep = 250

// printTrajectory runs test case tc without injections up to horizon
// ms and prints its arrestment trajectory. A non-empty record path
// also receives every signal's trace.
func printTrajectory(out io.Writer, tc physics.TestCase, horizon int64, dual bool, record string) error {
	if horizon <= 0 {
		return fmt.Errorf("-horizon must be positive")
	}
	var (
		inst *arrestor.Instance
		err  error
	)
	if dual {
		inst, err = arrestor.NewDualInstance(arrestor.DefaultDualConfig(), tc, nil)
	} else {
		inst, err = arrestor.NewInstance(arrestor.DefaultConfig(), tc, nil)
	}
	if err != nil {
		return err
	}
	var sig [6]*sim.Signal
	for i, name := range []string{arrestor.SigPulscnt, arrestor.SigI, arrestor.SigSetValue,
		arrestor.SigTOC2, arrestor.SigSlowSpeed, arrestor.SigStopped} {
		if sig[i], err = inst.Bus().Lookup(name); err != nil {
			return err
		}
	}
	var rec *trace.Recorder
	if record != "" {
		if rec, err = trace.NewRecorder(inst.Bus()); err != nil {
			return err
		}
		inst.Kernel().AddPostHook(rec.Hook())
	}

	w := inst.World()
	fmt.Fprintf(out, "arrestment of %v\n", tc)
	fmt.Fprintf(out, "%8s %8s %8s %8s %3s %9s %9s %7s %5s %5s\n",
		"t[ms]", "v[m/s]", "x[m]", "pulscnt", "i", "SetValue", "TOC2", "p[frac]", "slow", "stop")
	inst.Kernel().AddPostHook(func(now sim.Millis) {
		if (now+1)%trajectoryStep == 0 {
			fmt.Fprintf(out, "%8d %8.2f %8.1f %8d %3d %9d %9d %7.3f %5v %5v\n",
				now+1, w.VelocityMS(), w.PositionM(), sig[0].Read(), sig[1].Read(), sig[2].Read(),
				sig[3].Read(), w.PressureFrac(), sig[4].ReadBool(), sig[5].ReadBool())
		}
	})
	inst.Run(sim.Millis(horizon))
	fmt.Fprintf(out, "\nfinal: v=%.2f m/s after %.1f m (hardware pulses: %d)\n",
		w.VelocityMS(), w.PositionM(), w.PulseCount())
	if rec == nil {
		return nil
	}
	f, err := os.Create(record)
	if err != nil {
		return err
	}
	defer f.Close()
	n, err := rec.Trace().WriteTo(f)
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "recorded %d signals × %d samples (%d bytes) to %s\n",
		len(rec.Trace().Signals()), rec.Trace().Len(), n, record)
	return nil
}

// printTrace prints each signal's range of the trace file at path, or
// with a non-empty runPath the Golden Run Comparison of that run's
// trace against it: per deviating signal the first and last
// deviation, their count and the transient/permanent class.
func printTrace(out io.Writer, path, runPath string) error {
	golden, err := loadTrace(path)
	if err != nil {
		return err
	}
	if runPath == "" {
		fmt.Fprintf(out, "%s: %d signals × %d samples\n", path, len(golden.Signals()), golden.Len())
		for _, name := range golden.Signals() {
			samples, err := golden.Samples(name)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "  %-14s min=%5d max=%5d final=%5d\n",
				name, slices.Min(samples), slices.Max(samples), samples[len(samples)-1])
		}
		return nil
	}
	runTrace, err := loadTrace(runPath)
	if err != nil {
		return err
	}
	diffs, err := trace.Compare(golden, runTrace)
	if err != nil {
		return err
	}
	deviated := 0
	for _, name := range golden.Signals() {
		if d := diffs[name]; d.Differs() {
			deviated++
			fmt.Fprintf(out, "%-14s first=%5d ms last=%5d ms count=%6d density=%.2f class=%s\n",
				name, d.First, d.Last, d.Count, d.Density(), d.Classify(golden.Len()))
		}
	}
	if deviated == 0 {
		fmt.Fprintln(out, "traces are identical")
	} else {
		fmt.Fprintf(out, "%d of %d signals deviated\n", deviated, len(golden.Signals()))
	}
	return nil
}

func loadTrace(path string) (*trace.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadTrace(f)
}

// loadMatrix reads a topology JSON and a permeability CSV of
// module,in,out[,...],value rows, such as -dot's matrix.csv.
func loadMatrix(topoPath, matrixPath string) (*core.Matrix, error) {
	topology, err := os.ReadFile(topoPath)
	if err != nil {
		return nil, err
	}
	sys, err := model.DecodeSystem(topology)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(matrixPath)
	if err != nil {
		return nil, err
	}
	m := core.NewMatrix(sys)
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || (i == 0 && strings.HasPrefix(line, "module,")) {
			continue // header or blank
		}
		if err := setPair(m, strings.Split(line, ",")); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", matrixPath, i+1, err)
		}
	}
	return m, nil
}

// setPair sets the pair of one module,in,out[,...],value row.
func setPair(m *core.Matrix, fields []string) error {
	if len(fields) < 4 {
		return fmt.Errorf("need at least module,in,out,value")
	}
	in, err := strconv.Atoi(strings.TrimSpace(fields[1]))
	if err != nil {
		return fmt.Errorf("input index: %w", err)
	}
	out, err := strconv.Atoi(strings.TrimSpace(fields[2]))
	if err != nil {
		return fmt.Errorf("output index: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(fields[len(fields)-1]), 64)
	if err != nil {
		return fmt.Errorf("value: %w", err)
	}
	return m.Set(strings.TrimSpace(fields[0]), in, out, v)
}

// parseProbs decodes "sig=0.1,sig2=0.02" into a probability map.
func parseProbs(spec string) (map[string]float64, error) {
	probs := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed probability %q (want signal=value)", part)
		}
		p, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("probability %q: %w", part, err)
		}
		probs[strings.TrimSpace(name)] = p
	}
	return probs, nil
}
