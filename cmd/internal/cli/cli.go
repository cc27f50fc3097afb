// Package cli holds what the two campaign front ends, commands
// propane and propaned, share: the campaign flags both honour, the
// check that refuses a flag the chosen mode would ignore, and the
// closing summary of a finished campaign.
package cli

import (
	"flag"
	"fmt"
	"io"

	"propane/internal/campaign"
	"propane/internal/runner"
)

// Campaign is the parsed value of the shared campaign flags.
type Campaign struct {
	Instance  string
	Tier      runner.Tier
	Dir       string
	Resume    bool
	Workers   int
	RunBudget int64
	Adaptive  campaign.AdaptiveMode
	CIEpsilon float64
}

// Flags defines the shared campaign flags on fs, with the binary's
// default instance and tier. Call the returned function after
// fs.Parse to read them.
func Flags(fs *flag.FlagSet, instance, tier string) func() (Campaign, error) {
	inst := fs.String("instance", instance, "campaign instance to run (see propane -list)")
	tr := fs.String("tier", tier, "campaign intensity: quick or full")
	dir := fs.String("dir", "", "artifact directory: journal, metrics and report (propaned: the coordinator's, the service root with -serve, the scratch root with -worker)")
	resume := fs.Bool("resume", false, "resume a killed campaign (with -serve, the whole service) from the journals under -dir")
	workers := fs.Int("workers", 0, "concurrent injection runs (<= 0 means GOMAXPROCS; propaned: per fleet worker)")
	runBudget := fs.Int64("run-budget", 0, "per-run step budget: terminate and classify a run as hung after this many work units; part of the config digest (0 = instance default)")
	adaptive := fs.String("adaptive", "off", "sequential CI-driven sampling, part of the config digest: off (full matrix), auto, or force")
	ciEpsilon := fs.Float64("ci-epsilon", 0, "adaptive stopping half-width ε in (0, 0.5); 0 keeps the 0.05 default")
	return func() (Campaign, error) {
		mode, err := campaign.ParseAdaptiveMode(*adaptive)
		if err != nil {
			return Campaign{}, fmt.Errorf("-adaptive: %w", err)
		}
		return Campaign{
			Instance: *inst, Tier: runner.Tier(*tr), Dir: *dir, Resume: *resume,
			Workers: *workers, RunBudget: *runBudget, Adaptive: mode, CIEpsilon: *ciEpsilon,
		}, nil
	}
}

// CheckMode refuses the first flag set on the command line that mode
// does not read, instead of letting the mode silently ignore it.
func CheckMode(fs *flag.FlagSet, mode string, reads func(name string) bool) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if err == nil && !reads(f.Name) {
			err = fmt.Errorf("-%s does not apply to %s", f.Name, mode)
		}
	})
	return err
}

// Summary prints the closing lines of a finished campaign. An empty
// dir omits the artifacts line.
func Summary(out io.Writer, m runner.Metrics, dir string) {
	name := m.Instance
	if m.Tier != "" {
		name += "/" + m.Tier
	}
	fmt.Fprintf(out, "campaign %s assembled: %d runs (%d replayed, %d executed), %d traps unfired\n",
		name, m.ReplayedRuns+m.ExecutedRuns, m.ReplayedRuns, m.ExecutedRuns, m.Unfired)
	fmt.Fprintf(out, "%d system failures in %d equivalence classes\n", m.SystemFailures, m.UniqueFailures)
	if m.Crashes+m.Hangs+m.Quarantined > 0 {
		fmt.Fprintf(out, "supervised failure modes: %d crashes, %d hangs, %d quarantined jobs (excluded from all estimates)\n",
			m.Crashes, m.Hangs, m.Quarantined)
	}
	if m.PrunedRuns+m.MemoizedRuns+m.ConvergedRuns > 0 {
		fmt.Fprintf(out, "equivalence pruning: %d pruned, %d memoized, %d converged (outcomes retained in all estimates)\n",
			m.PrunedRuns, m.MemoizedRuns, m.ConvergedRuns)
	}
	switch {
	case m.RunsPerSecond > 0 && m.Workers > 0:
		fmt.Fprintf(out, "%.0f runs/s over %d workers (%.0f%% utilisation)\n",
			m.RunsPerSecond, m.Workers, 100*m.WorkerUtilization)
	case m.RunsPerSecond > 0: // an assembly: the runs executed on a fleet
		fmt.Fprintf(out, "%.0f runs/s\n", m.RunsPerSecond)
	}
	if dir != "" {
		fmt.Fprintf(out, "artifacts in %s\n", dir)
	}
}
