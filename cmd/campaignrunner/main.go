// Command campaignrunner orchestrates journaled, resumable SWIFI
// campaigns from the named-instance registry (internal/runner).
//
// Usage:
//
//	campaignrunner -list
//	campaignrunner -instance paper -tier quick -dir artifacts/paper-quick
//	campaignrunner -instance paper -dir D -resume
//	campaignrunner -worker http://coordinator:8080 -dir scratch
//	campaignrunner -worker http://coordinator:8080 -dir scratch -chaos seed=7,rate=0.2
//	campaignrunner -synth examples/synth/arrestor.yaml -instance synth-arrestor -tier quick -dir D
//	campaignrunner -fuzz-topologies 200
//
// Every run writes an artifact set under -dir: config.json (the
// digestable config snapshot), journal.jsonl (one line per completed
// injection run), metrics.json, failures.md and report.md. A run
// killed mid-campaign is resumed with -resume; completed jobs replay
// from the journal and only the remainder executes, converging to the
// bit-identical permeability matrix. To spread one campaign over
// several processes, run a coordinator (command propaned, or
// propaned -loopback N on one machine) and join it with -worker.
//
// Runs execute supervised: -run-budget bounds each run's
// deterministic work units (an exceeded budget classifies the run as
// a hang), target panics are classified as crashes, transient
// journal/artifact I/O failures retry with backoff (-max-retries),
// and a job that repeatedly crashes its worker is quarantined after
// -quarantine-after consecutive failures instead of wedging the
// campaign.
//
// With -synth, declarative topology documents (YAML/JSON, see
// examples/synth/) are compiled and registered as additional named
// instances before any other mode runs, so they list, run, resume
// and distribute exactly like the built-in ones. With
// -fuzz-topologies N, the process instead generates N random valid
// topologies and runs each one's quick campaign twice, failing on
// any engine panic, campaign error or non-determinism.
//
// With -worker, the process joins the fleet of a distributed
// coordinator (command propaned) instead of running a campaign of
// its own: it leases work units, executes them through the same
// supervised local path under -dir (the scratch root), and streams
// the journal records back until the coordinator reports the
// campaign complete. -chaos wraps the worker's HTTP client in the
// internal/chaos fault injector (seeded drops, duplicates,
// truncations, corruptions, 5xx and delays) — the fabric's own SWIFI
// harness; the campaign must still assemble bit-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/distrib"
	"propane/internal/profiling"
	"propane/internal/runner"
	"propane/internal/store"
	"propane/internal/synth"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "campaignrunner:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (retErr error) {
	fs := flag.NewFlagSet("campaignrunner", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the registered campaign instances and exit")
	instance := fs.String("instance", "", "campaign instance to run (see -list)")
	tier := fs.String("tier", "quick", "campaign intensity: quick or full")
	dir := fs.String("dir", "", "artifact directory (journal, metrics, report)")
	resume := fs.Bool("resume", false, "resume a killed campaign from its journal")
	workers := fs.Int("workers", 0, "concurrent injection runs (<= 0 means GOMAXPROCS)")
	progress := fs.Duration("progress", 10*time.Second, "progress-line interval (0 disables)")
	runBudget := fs.Int64("run-budget", 0, "per-run step budget: terminate and classify a run as hung after this many work units (0 = instance default)")
	maxRetries := fs.Int("max-retries", 0, "retries for transient journal/artifact I/O failures (0 = default 3, negative disables)")
	quarantineAfter := fs.Int("quarantine-after", 0, "quarantine a job after this many consecutive worker crashes (0 = default 3, negative disables → abort)")
	pruneFlag := fs.String("prune", "auto", "equivalence pruning: auto (short-circuit provably equivalent runs) or off")
	adaptiveFlag := fs.String("adaptive", "off", "sequential CI-driven sampling: off (full matrix), auto, or force")
	ciEpsilon := fs.Float64("ci-epsilon", 0, "adaptive stopping half-width ε in (0, 0.5); 0 keeps the 0.05 default")
	synthFiles := fs.String("synth", "", "comma-separated declarative topology documents to compile and register as instances")
	fuzzTopologies := fs.Int("fuzz-topologies", 0, "generate and campaign this many random topologies, then exit")
	workerURL := fs.String("worker", "", "join a distributed coordinator's fleet at this URL (see propaned); -dir becomes the local scratch root")
	workerName := fs.String("worker-name", "", "fleet identity for -worker mode (default hostname-pid; keep it stable across restarts to resume local work)")
	chaosSpec := fs.String("chaos", "", "inject seeded faults into this worker's coordinator RPCs, e.g. seed=7,rate=0.2 (see internal/chaos; -worker mode only)")
	storeDir := fs.String("store-dir", "", "persistent memo store: identical injection runs across campaigns are served from this directory instead of re-executing (-worker mode only)")
	jsonRecords := fs.Bool("json-records", false, "upload records as JSON even when the coordinator offers the binary batch framing (-worker mode only)")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the campaign to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile to this file when the campaign finishes")
	if err := fs.Parse(args); err != nil {
		return err
	}

	stopProfiles, err := profiling.Start(*cpuProfile, *memProfile)
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProfiles(); perr != nil && retErr == nil {
			retErr = perr
		}
	}()

	if *synthFiles != "" {
		for _, path := range strings.Split(*synthFiles, ",") {
			path = strings.TrimSpace(path)
			if path == "" {
				continue
			}
			def, serr := runner.RegisterSynthFile(path)
			if serr != nil {
				return serr
			}
			fmt.Fprintf(out, "registered instance %q from %s\n", def.Name, path)
		}
	}
	if *fuzzTopologies > 0 {
		return runTopologyFuzz(*fuzzTopologies, out)
	}

	if *list {
		fmt.Fprintln(out, "registered campaign instances (tiers: quick, full):")
		for _, def := range runner.Instances() {
			fmt.Fprintf(out, "  %-14s %s\n", def.Name, def.Description)
		}
		return nil
	}
	logf := func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	var prune campaign.PruneMode
	switch *pruneFlag {
	case "auto", "":
		prune = campaign.PruneAuto
	case "off":
		prune = campaign.PruneOff
	default:
		return fmt.Errorf("unknown -prune mode %q (want auto or off)", *pruneFlag)
	}
	adaptive, err := campaign.ParseAdaptiveMode(*adaptiveFlag)
	if err != nil {
		return fmt.Errorf("-adaptive: %w", err)
	}
	if *ciEpsilon < 0 || *ciEpsilon >= 0.5 {
		return fmt.Errorf("-ci-epsilon %v outside [0, 0.5)", *ciEpsilon)
	}
	if *workerURL != "" {
		if *dir == "" {
			return fmt.Errorf("-worker needs -dir as the local scratch root")
		}
		var cs *chaos.Spec
		if *chaosSpec != "" {
			spec, cerr := chaos.ParseSpec(*chaosSpec)
			if cerr != nil {
				return cerr
			}
			cs = &spec
		}
		// A signal aborts backoff waits and poll sleeps immediately
		// instead of letting a mid-retry worker linger.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		encoding := ""
		if *jsonRecords {
			encoding = "json"
		}
		var memo runner.MemoStore
		if *storeDir != "" {
			st, serr := store.Open(*storeDir, store.Options{Logf: logf})
			if serr != nil {
				return serr
			}
			defer st.Close()
			memo = st
		}
		werr := distrib.RunWorkerContext(ctx, *workerURL, distrib.WorkerOptions{
			Name:        *workerName,
			Dir:         *dir,
			Workers:     *workers,
			Chaos:       cs,
			Encoding:    encoding,
			Memo:        memo,
			LogInterval: *progress,
			Logf:        logf,
		})
		if werr != nil && ctx.Err() != nil {
			return fmt.Errorf("worker interrupted: %w", werr)
		}
		return werr
	}
	if *chaosSpec != "" {
		return fmt.Errorf("-chaos only applies to -worker mode (or propaned -loopback)")
	}
	if *jsonRecords {
		return fmt.Errorf("-json-records only applies to -worker mode")
	}
	if *storeDir != "" {
		return fmt.Errorf("-store-dir only applies to -worker mode")
	}
	if *instance == "" {
		return fmt.Errorf("no -instance given (use -list to see the registry)")
	}
	opts := runner.Options{
		Dir:             *dir,
		Resume:          *resume,
		Workers:         *workers,
		LogInterval:     *progress,
		Logf:            logf,
		RunBudgetSteps:  *runBudget,
		MaxRetries:      *maxRetries,
		QuarantineAfter: *quarantineAfter,
		Prune:           prune,
		Adaptive:        adaptive,
		CIEpsilon:       *ciEpsilon,
	}

	rr, err := runner.RunInstance(*instance, runner.Tier(*tier), opts)
	if err != nil {
		return err
	}

	m := rr.Metrics
	fmt.Fprintf(out, "campaign %s/%s: %d runs (%d replayed, %d executed), %d traps unfired\n",
		m.Instance, m.Tier, m.ReplayedRuns+m.ExecutedRuns, m.ReplayedRuns, m.ExecutedRuns, m.Unfired)
	fmt.Fprintf(out, "%d system failures in %d equivalence classes\n", m.SystemFailures, m.UniqueFailures)
	if m.Crashes+m.Hangs+m.Quarantined > 0 {
		fmt.Fprintf(out, "supervised failure modes: %d crashes, %d hangs, %d quarantined jobs (excluded from all estimates)\n",
			m.Crashes, m.Hangs, m.Quarantined)
	}
	if m.PrunedRuns+m.MemoizedRuns+m.ConvergedRuns > 0 {
		fmt.Fprintf(out, "equivalence pruning: %d pruned, %d memoized, %d converged (outcomes retained in all estimates)\n",
			m.PrunedRuns, m.MemoizedRuns, m.ConvergedRuns)
	}
	if m.ExecutedRuns > 0 {
		fmt.Fprintf(out, "%.0f runs/s over %d workers (%.0f%% utilisation)\n",
			m.RunsPerSecond, m.Workers, 100*m.WorkerUtilization)
	}
	fmt.Fprintf(out, "artifacts in %s\n", rr.Dir)
	return nil
}

// runTopologyFuzz sweeps seeds 1..n through the topology generator:
// each spec must validate, compile and produce a deterministic quick
// campaign. Crashing or hanging modules are legitimate outcomes; an
// engine panic or campaign error fails the sweep.
func runTopologyFuzz(n int, out io.Writer) error {
	for seed := int64(1); seed <= int64(n); seed++ {
		spec := synth.GenerateTopology(seed)
		if err := synth.CheckTopology(spec); err != nil {
			return fmt.Errorf("topology fuzz: seed %d: %w", seed, err)
		}
		if seed%50 == 0 || seed == int64(n) {
			fmt.Fprintf(out, "topology fuzz: %d/%d topologies survived\n", seed, n)
		}
	}
	fmt.Fprintf(out, "topology fuzz: %d topologies, zero engine panics\n", n)
	return nil
}
