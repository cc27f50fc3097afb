// Command propaned is the distributed campaign coordinator and its
// fleet agent: it decomposes a registry instance into lease-bounded
// work units, serves them over HTTP to propaned -worker agents,
// journals the records they upload, and — once every unit is
// complete — assembles the final report, bit-identical to a
// single-node propane run.
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
//	propaned -worker http://coordinator:8080 -dir scratch
//	propaned -worker http://coordinator:8080 -dir scratch -chaos seed=7,rate=0.2
//
// and may come and go freely: a worker silent past the lease TTL is
// presumed dead and its unit is reassigned, fast-forwarded past
// every record already received. Workers journal their records
// locally while a unit runs, then upload them in batches and complete
// the unit once. Killing and restarting propaned itself with -resume
// restores its state from the journals under -dir. The HTTP API also
// serves /status and /metrics JSON for dashboards.
//
// # Worker mode
//
// With -worker, the process joins a coordinator's fleet instead: it
// leases work units, executes them through the same supervised local
// path as propane under -dir (the scratch root), and uploads each
// unit's records when the unit finishes, until the coordinator
// reports the campaign complete. -worker-name keeps its fleet
// identity stable across restarts, so a restarted worker resumes its
// unit from the local journal. -chaos wraps the worker's HTTP client in the
// internal/chaos fault injector, and -store-dir serves identical
// injection runs across campaigns from a persistent memo store.
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
//
// Each mode refuses a flag it would ignore, such as -workers without
// an in-process fleet or -store-dir without -serve or -worker.
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
	"slices"
	"sync"
	"syscall"
	"time"

	"propane/cmd/internal/cli"
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
	campaignFlags := cli.Flags(fs, "", string(runner.TierQuick))
	units := fs.Int("units", 0, "initial carve granularity: the first work units are sized as if the campaign split this many ways (0 = one unit per 32 runs, at most 8); later units are cost-sized on demand")
	listen := fs.String("listen", "127.0.0.1:8080", "address to serve the coordinator API on")
	lease := fs.Duration("lease", 0, "lease TTL: a worker silent this long is presumed dead and its unit reassigned (0 = default 30s)")
	loopback := fs.Int("loopback", 0, "run this many in-process workers on an ephemeral listener instead of serving a network fleet")
	chaosSpec := fs.String("chaos", "", "inject seeded faults into the workers' coordinator RPCs, e.g. seed=7,rate=0.2 (see internal/chaos; -loopback or -worker mode)")
	workerURL := fs.String("worker", "", "join the fleet of the coordinator at this URL instead of coordinating; -dir becomes the local scratch root")
	workerName := fs.String("worker-name", "", "fleet identity for -worker mode (default hostname-pid; keep it stable across restarts to resume local work)")
	serve := fs.Bool("serve", false, "run as a long-lived multi-tenant campaign service (POST /v1/campaigns) instead of coordinating one campaign")
	storeDir := fs.String("store-dir", "", "content-addressed result store directory: the service's with -serve (default <dir>/store), a cross-campaign memo store with -worker")
	gcInterval := fs.Duration("gc-interval", 15*time.Minute, "store garbage-collection interval in -serve mode (0 disables)")
	quotaQueued := fs.Int("quota-queued", 0, "per-tenant cap on queued campaigns in -serve mode (0 = default 8)")
	quotaActive := fs.Int("quota-active", 0, "per-tenant cap on concurrently active campaigns in -serve mode (0 = default 2)")
	quotaJobs := fs.Int("quota-jobs", 0, "per-tenant cap on total injection jobs in flight in -serve mode (0 = default 500000)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	c, err := campaignFlags()
	if err != nil {
		return err
	}
	mode, reads := modeFlags(*workerURL != "", *serve, c.Instance != "", *loopback > 0)
	if err := cli.CheckMode(fs, mode, func(name string) bool { return slices.Contains(reads, name) }); err != nil {
		return err
	}
	if c.Instance == "" && !*serve && *workerURL == "" {
		return fmt.Errorf("no -instance given (use propane -list to see the registry, -serve for service mode or -worker to join a fleet)")
	}
	var cs *chaos.Spec
	if *chaosSpec != "" {
		spec, cerr := chaos.ParseSpec(*chaosSpec)
		if cerr != nil {
			return cerr
		}
		cs = &spec
	}

	logf := func(format string, a ...any) { fmt.Fprintf(out, format+"\n", a...) }
	switch {
	case *workerURL != "":
		return runWorker(logf, *workerURL, distrib.WorkerOptions{
			Name: *workerName, Dir: c.Dir, Workers: c.Workers, Chaos: cs,
			LogInterval: 10 * time.Second, Logf: logf,
		}, *storeDir)
	case *serve:
		return runServe(out, logf, serveConfig{
			Campaign: c, storeDir: *storeDir, listen: *listen, loopback: *loopback, chaos: cs,
			opts: service.Options{
				Dir: c.Dir, Resume: c.Resume, Units: *units, LeaseTTL: *lease,
				GCInterval: *gcInterval, Logf: logf,
				Quotas: service.Quotas{MaxQueued: *quotaQueued, MaxActive: *quotaActive, MaxJobs: *quotaJobs},
			},
		})
	}
	cc := distrib.Config{
		Instance:       c.Instance,
		Tier:           c.Tier,
		Dir:            c.Dir,
		Units:          *units,
		LeaseTTL:       *lease,
		Resume:         c.Resume,
		RunBudgetSteps: c.RunBudget,
		Adaptive:       c.Adaptive,
		CIEpsilon:      c.CIEpsilon,
		Logf:           logf,
	}

	var rr *runner.RunResult
	if *loopback > 0 {
		rr, err = distrib.Loopback(cc, *loopback, distrib.WorkerOptions{
			Workers: c.Workers,
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
		logf("propaned: coordinating %s/%s — %d runs, carved into work units on demand — on http://%s (workers: propaned -worker http://%s -dir scratch)",
			info.Name, info.Tier, info.TotalRuns, l.Addr(), l.Addr())
		rr, err = coord.Serve(l)
	}
	if err != nil {
		return err
	}
	cli.Summary(out, rr.Metrics, rr.Dir)
	return nil
}

// modeFlags names the mode the mode-selecting options choose and
// lists the flags that mode reads.
func modeFlags(worker, serve, instance, loopback bool) (string, []string) {
	if worker {
		return "-worker", []string{"worker", "worker-name", "dir", "workers", "chaos", "store-dir"}
	}
	reads := []string{"dir", "resume", "units", "lease", "loopback"}
	fleet := []string{"workers", "chaos"}
	spec := []string{"instance", "tier", "run-budget", "adaptive", "ci-epsilon"}
	switch {
	case serve:
		mode := "-serve"
		reads = append(reads, "serve", "listen", "store-dir", "gc-interval", "quota-queued", "quota-active", "quota-jobs", "instance")
		if instance {
			mode += " -instance"
			reads = append(reads, spec...)
		}
		if loopback {
			mode += " -loopback"
			reads = append(reads, fleet...)
		}
		return mode, reads
	case loopback:
		return "-loopback", append(append(reads, spec...), fleet...)
	}
	return "a network coordinator (no -loopback, -serve or -worker)", append(append(reads, spec...), "listen")
}

// runWorker joins a coordinator's fleet until it reports the campaign
// complete. A signal aborts backoff waits and poll sleeps immediately
// instead of letting a mid-retry worker linger.
func runWorker(logf func(string, ...any), url string, wo distrib.WorkerOptions, storeDir string) error {
	if wo.Dir == "" {
		return fmt.Errorf("-worker needs -dir as the local scratch root")
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if storeDir != "" {
		st, err := store.Open(storeDir, store.Options{Logf: logf})
		if err != nil {
			return err
		}
		defer st.Close()
		wo.Memo = st
	}
	err := distrib.RunWorkerContext(ctx, url, wo)
	if err != nil && ctx.Err() != nil {
		return fmt.Errorf("worker interrupted: %w", err)
	}
	return err
}

// serveConfig is what -serve reads: the campaign flags (for the
// submit-and-tail client), the store and fleet options, and the
// service's own options, whose Store runServe fills in.
type serveConfig struct {
	cli.Campaign
	storeDir, listen string
	loopback         int
	chaos            *chaos.Spec
	opts             service.Options
}

// runServe hosts the multi-tenant campaign service: store, admission
// queue, shared-fleet scheduler and HTTP API. With an instance it
// doubles as a submit-and-tail client for its own service; without
// one it serves until interrupted.
func runServe(out io.Writer, logf func(string, ...any), sc serveConfig) error {
	if sc.Dir == "" {
		return fmt.Errorf("-serve needs -dir as the service root")
	}
	if sc.storeDir == "" {
		sc.storeDir = filepath.Join(sc.Dir, "store")
	}
	st, err := store.Open(sc.storeDir, store.Options{Logf: logf})
	if err != nil {
		return err
	}
	defer st.Close()

	sc.opts.Store = st
	svc, err := service.Open(sc.opts)
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
					Name: name, Dir: filepath.Join(sc.Dir, "worker-scratch"),
					Workers: sc.Workers, Chaos: sc.chaos, Memo: st, Logf: logf,
				}
				if werr := distrib.RunWorkerContext(ctx, url, wo); werr != nil && ctx.Err() == nil {
					logf("propaned: worker %s exited: %v", name, werr)
				}
			}(name)
		}
		defer func() { stop(); wg.Wait() }()
	}

	if sc.Instance == "" {
		<-ctx.Done()
		logf("propaned: interrupted; draining")
		return nil
	}

	// Submit-and-tail: the legacy single-campaign UX on top of the
	// service path.
	info, err := svc.Submit("", service.SubmitRequest{
		Instance: sc.Instance, Tier: string(sc.Tier), RunBudgetSteps: sc.RunBudget,
		Adaptive: sc.Adaptive.String(), CIEpsilon: sc.CIEpsilon,
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
	cli.Summary(out, rr.Metrics, rr.Dir)
	fmt.Fprintf(out, "report ref campaign/%s/report.md in %s\n", info.ID, sc.storeDir)
	return nil
}
