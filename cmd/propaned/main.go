// Command propaned is the distributed campaign coordinator: it
// decomposes a registry instance into lease-bounded work units,
// serves them over HTTP to campaignrunner -worker agents, journals
// the records they stream back, and — once every unit is complete —
// assembles the final report, bit-identical to a single-node run.
//
// Usage:
//
//	propaned -instance paper -tier full -dir artifacts/paper -listen :8080
//	propaned -instance paper -dir artifacts/paper -resume
//	propaned -instance reduced -dir D -loopback 3
//	propaned -instance reduced -dir D -loopback 3 -chaos seed=7,rate=0.2
//
// Workers join with
//
//	campaignrunner -worker http://coordinator:8080 -dir scratch
//
// and may come and go freely: a worker silent past the lease TTL is
// presumed dead and its unit is reassigned, fast-forwarded past
// every record already received. Workers journal their records
// locally and normally complete a unit with a digest alone; the
// coordinator pulls the full record set lazily — on digest mismatch,
// when the final report needs it, or always under -pull. Killing and
// restarting propaned itself with -resume restores its state from
// the journals under -dir. The HTTP API also serves /status and
// /metrics JSON for dashboards.
//
// -loopback N skips the network fleet entirely and runs N worker
// agents in-process against an ephemeral listener — a self-contained
// (and offline) way to exercise the full distributed path on one
// machine. Adding -chaos (e.g. -chaos seed=7,rate=0.2) wraps every
// loopback worker's HTTP client in the internal/chaos fault injector:
// seeded drops, duplicated deliveries, truncations, corruptions, 5xx
// and delays on every RPC, against which the campaign must still
// assemble bit-identically — the fabric's own SWIFI smoke test.
//
// # Service mode
//
// With -serve, propaned becomes a long-lived multi-tenant campaign
// service instead of a single-campaign coordinator:
//
//	propaned -serve -dir /var/propane -listen :8080
//	propaned -serve -dir /var/propane -resume
//	propaned -serve -dir D -instance reduced -loopback 3
//
// Tenants submit campaigns over HTTP (POST /v1/campaigns with an
// instance name or an inline topology document, identified by an
// X-Propane-Tenant header), stream progress from GET
// /v1/campaigns/{id}/events, and fetch the assembled report from
// /v1/campaigns/{id}/report. Admission control enforces per-tenant
// quotas (-quota-queued, -quota-active, -quota-jobs) and global queue
// depth thresholds, answering 429 with a Retry-After hint when a
// submission must back off. One shared worker fleet serves every
// active campaign: leases carry a campaign ID and are granted
// weighted-fair across tenants. Completed reports and the workers'
// cross-campaign memo entries live in a content-addressed store under
// -store-dir, garbage-collected every -gc-interval. The queue,
// assignments and store index are journaled: -serve -resume after a
// kill recovers every queued and in-flight campaign bit-identically.
//
// In service mode -instance is a convenience wrapper: the campaign is
// submitted in-process and its events tailed until done (add
// -loopback N for a self-contained in-process fleet); without
// -instance the service runs until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"propane/internal/campaign"
	"propane/internal/chaos"
	"propane/internal/distrib"
	"propane/internal/runner"
	"propane/internal/service"
	"propane/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "propaned:", err)
		os.Exit(1)
	}
}

// syncWriter serialises writes: the coordinator, loopback workers and
// service goroutines all log to one writer.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

func run(args []string, out io.Writer) error {
	out = &syncWriter{w: out}
	fs := flag.NewFlagSet("propaned", flag.ContinueOnError)
	instance := fs.String("instance", "", "campaign instance to coordinate (see campaignrunner -list)")
	tier := fs.String("tier", "quick", "campaign intensity: quick or full")
	dir := fs.String("dir", "", "coordinator artifact directory (record journal, assignment journal, final report; in -serve mode the service root)")
	units := fs.Int("units", 0, "initial carve granularity: the first work units are sized as if the campaign split this many ways (0 = one unit per 32 runs, at most 8); later units are cost-sized on demand")
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve the coordinator API on")
	lease := fs.Duration("lease", 0, "lease TTL: a worker silent this long is presumed dead and its unit reassigned (0 = default 30s)")
	resume := fs.Bool("resume", false, "restore state from the journals under -dir (the coordinator's, or in -serve mode the whole service's queue and in-flight campaigns)")
	pull := fs.Bool("pull", false, "always pull full record sets from workers instead of accepting digest-only completion")
	loopback := fs.Int("loopback", 0, "run this many in-process workers on an ephemeral listener instead of serving a network fleet")
	workers := fs.Int("workers", 0, "local campaign parallelism per loopback worker (<= 0 means GOMAXPROCS)")
	runBudget := fs.Int64("run-budget", 0, "per-run step budget, applied fleet-wide via the config digest (0 = instance default)")
	adaptiveFlag := fs.String("adaptive", "off", "sequential CI-driven sampling, applied fleet-wide via the config digest: off (full matrix), auto, or force")
	ciEpsilon := fs.Float64("ci-epsilon", 0, "adaptive stopping half-width ε in (0, 0.5); 0 keeps the 0.05 default")
	chaosSpec := fs.String("chaos", "", "inject seeded faults into the loopback workers' RPCs, e.g. seed=7,rate=0.2 (see internal/chaos; -loopback mode only)")
	serve := fs.Bool("serve", false, "run as a long-lived multi-tenant campaign service (POST /v1/campaigns) instead of coordinating one campaign")
	storeDir := fs.String("store-dir", "", "content-addressed result store directory for -serve mode (default <dir>/store)")
	gcInterval := fs.Duration("gc-interval", 15*time.Minute, "store garbage-collection interval in -serve mode (0 disables)")
	quotaQueued := fs.Int("quota-queued", 0, "per-tenant cap on queued campaigns in -serve mode (0 = default 8)")
	quotaActive := fs.Int("quota-active", 0, "per-tenant cap on concurrently active campaigns in -serve mode (0 = default 2)")
	quotaJobs := fs.Int("quota-jobs", 0, "per-tenant cap on total injection jobs in flight in -serve mode (0 = default 500000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *instance == "" && !*serve {
		return fmt.Errorf("no -instance given (use campaignrunner -list to see the registry, or -serve for service mode)")
	}
	var cs *chaos.Spec
	if *chaosSpec != "" {
		if *loopback <= 0 {
			return fmt.Errorf("-chaos only applies to -loopback mode (network workers carry their own -chaos flag)")
		}
		spec, cerr := chaos.ParseSpec(*chaosSpec)
		if cerr != nil {
			return cerr
		}
		cs = &spec
	}

	adaptive, err := campaign.ParseAdaptiveMode(*adaptiveFlag)
	if err != nil {
		return fmt.Errorf("-adaptive: %w", err)
	}
	if *ciEpsilon < 0 || *ciEpsilon >= 0.5 {
		return fmt.Errorf("-ci-epsilon %v outside [0, 0.5)", *ciEpsilon)
	}

	logf := func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	if *serve {
		return runServe(out, logf, serveConfig{
			dir: *dir, storeDir: *storeDir, listen: *listen,
			instance: *instance, tier: *tier, runBudget: *runBudget,
			adaptive: adaptive.String(), ciEpsilon: *ciEpsilon,
			units: *units, lease: *lease, resume: *resume, pull: *pull,
			loopback: *loopback, workers: *workers, chaos: cs,
			gcInterval:  *gcInterval,
			quotaQueued: *quotaQueued, quotaActive: *quotaActive, quotaJobs: *quotaJobs,
		})
	}
	cc := distrib.Config{
		Instance:       *instance,
		Tier:           runner.Tier(*tier),
		Dir:            *dir,
		Units:          *units,
		LeaseTTL:       *lease,
		Resume:         *resume,
		Pull:           *pull,
		RunBudgetSteps: *runBudget,
		Adaptive:       adaptive,
		CIEpsilon:      *ciEpsilon,
		Logf:           logf,
	}

	var rr *runner.RunResult
	if *loopback > 0 {
		rr, err = distrib.Loopback(cc, *loopback, distrib.WorkerOptions{
			Workers: *workers,
			Chaos:   cs,
			Logf:    logf,
		})
	} else {
		var coord *distrib.Coordinator
		coord, err = distrib.NewCoordinator(cc)
		if err != nil {
			return err
		}
		var l net.Listener
		l, err = net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		info := coord.Info()
		logf("propaned: coordinating %s/%s — %d runs, carved into work units on demand — on http://%s (workers: campaignrunner -worker http://%s -dir scratch)",
			info.Name, info.Tier, info.TotalRuns, l.Addr(), l.Addr())
		rr, err = coord.Serve(l)
	}
	if err != nil {
		return err
	}

	m := rr.Metrics
	fmt.Fprintf(out, "campaign %s/%s assembled: %d runs, %d traps unfired\n",
		m.Instance, m.Tier, m.ReplayedRuns+m.ExecutedRuns, m.Unfired)
	fmt.Fprintf(out, "%d system failures in %d equivalence classes\n", m.SystemFailures, m.UniqueFailures)
	if m.Crashes+m.Hangs+m.Quarantined > 0 {
		fmt.Fprintf(out, "supervised failure modes: %d crashes, %d hangs, %d quarantined jobs (excluded from all estimates)\n",
			m.Crashes, m.Hangs, m.Quarantined)
	}
	fmt.Fprintf(out, "artifacts in %s\n", rr.Dir)
	return nil
}

type serveConfig struct {
	dir, storeDir, listen    string
	instance, tier           string
	runBudget                int64
	adaptive                 string
	ciEpsilon                float64
	units                    int
	lease                    time.Duration
	resume, pull             bool
	loopback, workers        int
	chaos                    *chaos.Spec
	gcInterval               time.Duration
	quotaQueued, quotaActive int
	quotaJobs                int
}

// runServe hosts the multi-tenant campaign service: store, admission
// queue, shared-fleet scheduler and HTTP API. With an instance it
// doubles as a submit-and-tail client for its own service; without
// one it serves until interrupted.
func runServe(out io.Writer, logf func(string, ...any), sc serveConfig) error {
	if sc.dir == "" {
		return fmt.Errorf("-serve needs -dir as the service root")
	}
	if sc.storeDir == "" {
		sc.storeDir = filepath.Join(sc.dir, "store")
	}
	st, err := store.Open(sc.storeDir, store.Options{Logf: logf})
	if err != nil {
		return err
	}
	defer st.Close()

	svc, err := service.Open(service.Options{
		Dir:        sc.dir,
		Store:      st,
		Quotas:     service.Quotas{MaxQueued: sc.quotaQueued, MaxActive: sc.quotaActive, MaxJobs: sc.quotaJobs},
		Units:      sc.units,
		LeaseTTL:   sc.lease,
		Pull:       sc.pull,
		Resume:     sc.resume,
		GCInterval: sc.gcInterval,
		Logf:       logf,
	})
	if err != nil {
		return err
	}
	defer svc.Close()

	l, err := net.Listen("tcp", sc.listen)
	if err != nil {
		return err
	}
	srv := svc.Server()
	go srv.Serve(l)
	defer srv.Close()
	url := "http://" + l.Addr().String()
	logf("propaned: serving campaigns on %s (submit: curl -XPOST %s/v1/campaigns -H 'X-Propane-Tenant: you' -d '{\"instance\":\"reduced\",\"tier\":\"quick\"}')", url, url)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// An in-process fleet makes the service self-contained; workers
	// share the service's store as their cross-campaign memo backend.
	if sc.loopback > 0 {
		var wg sync.WaitGroup
		for i := 0; i < sc.loopback; i++ {
			name := fmt.Sprintf("loopback-w%d", i+1)
			wg.Add(1)
			go func(name string) {
				defer wg.Done()
				wo := distrib.WorkerOptions{
					Name: name, Dir: filepath.Join(sc.dir, "worker-scratch"),
					Workers: sc.workers, Chaos: sc.chaos, Memo: st, Logf: logf,
				}
				if werr := distrib.RunWorkerContext(ctx, url, wo); werr != nil && ctx.Err() == nil {
					logf("propaned: worker %s exited: %v", name, werr)
				}
			}(name)
		}
		defer func() { stop(); wg.Wait() }()
	}

	if sc.instance == "" {
		<-ctx.Done()
		logf("propaned: interrupted; draining")
		return nil
	}

	// Submit-and-tail: the legacy single-campaign UX on top of the
	// service path.
	info, err := svc.Submit("", service.SubmitRequest{
		Instance: sc.instance, Tier: sc.tier, RunBudgetSteps: sc.runBudget,
		Adaptive: sc.adaptive, CIEpsilon: sc.ciEpsilon,
	})
	if err != nil {
		return err
	}
	logf("propaned: submitted %s (%s/%s, %d jobs); tailing", info.ID, info.Instance, info.Tier, info.Jobs)
	last := info.State
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("interrupted while campaign %s was %s", info.ID, last)
		case <-time.After(200 * time.Millisecond):
		}
		ci, ok := svc.Campaign(info.ID)
		if !ok {
			return fmt.Errorf("campaign %s vanished", info.ID)
		}
		if ci.State != last {
			logf("propaned: campaign %s is %s", ci.ID, ci.State)
			last = ci.State
		}
		if ci.State == service.StateFailed {
			return fmt.Errorf("campaign %s failed: %s", ci.ID, ci.Error)
		}
		if ci.State == service.StateDone {
			break
		}
	}
	rr, ok := svc.Result(info.ID)
	if !ok {
		return fmt.Errorf("campaign %s finished without a result", info.ID)
	}
	m := rr.Metrics
	fmt.Fprintf(out, "campaign %s/%s assembled: %d runs, %d traps unfired\n",
		m.Instance, m.Tier, m.ReplayedRuns+m.ExecutedRuns, m.Unfired)
	fmt.Fprintf(out, "%d system failures in %d equivalence classes\n", m.SystemFailures, m.UniqueFailures)
	fmt.Fprintf(out, "artifacts in %s; report ref campaign/%s/report.md in %s\n", rr.Dir, info.ID, sc.storeDir)
	return nil
}
