package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"propane/internal/campaign"
	"propane/internal/distrib"
	"propane/internal/runner"
)

// The fleet workload: the paper campaign under Adaptive=force at
// ε=0.05 (9,984 runs scheduled at the full tier), planned by a
// distrib coordinator behind the benchmark's own loopback listener and
// executed by one agent at Workers=2 speaking the binary record
// protocol. The planner, leases, record codec, RPC and the
// coordinator's fold and journal do their work here.
const (
	fleetNominalS  = 5 // seconds of run length per campaign
	fleetProbeReps = 5
	fleetWorkers   = 2
	fleetEpsilon   = 0.05
)

// fleet is one coordinator with its listener and agent.
type fleet struct {
	coord  *distrib.Coordinator
	srv    *http.Server
	meter  *rpcMeter
	cancel context.CancelFunc
	agent  chan error
}

// startFleet brings up a coordinator for the fleet campaign under dir,
// serves it on a loopback listener and starts the agent. The fleet is
// ready once the agent's first lease request arrives (f.meter.ready).
func startFleet(e *env, dir string, probe bool) (*fleet, error) {
	coord, err := distrib.NewCoordinator(distrib.Config{
		Instance:  "paper",
		Tier:      runner.TierFull,
		Dir:       filepath.Join(dir, "coord"),
		Adaptive:  campaign.AdaptiveForce,
		CIEpsilon: fleetEpsilon,
	})
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		coord.Close()
		return nil, err
	}
	f := &fleet{coord: coord, meter: newRPCMeter(coord.Handler(), e.tr, 1, probe), agent: make(chan error, 1)}
	f.srv = distrib.NewServer(f.meter)
	go f.srv.Serve(l)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	go func() {
		f.agent <- distrib.RunWorkerContext(ctx, "http://"+l.Addr().String(), distrib.WorkerOptions{
			Name:    "bench-agent",
			Dir:     filepath.Join(dir, "scratch"),
			Workers: fleetWorkers,
		})
	}()
	return f, nil
}

// wait waits for the agent to leave — it does once the coordinator
// answers its lease "done" — and shuts the server down.
func (f *fleet) wait() error {
	err := <-f.agent
	f.cancel()
	_ = f.srv.Close()
	return err
}

func runFleet(e *env) (*outcome, error) {
	out := &outcome{}
	settleDisk()
	for i := 0; i < fleetProbeReps; i++ {
		start := time.Now()
		f, err := startFleet(e, filepath.Join(e.dir, fmt.Sprintf("setup-%d", i)), true)
		if err != nil {
			return nil, err
		}
		err = awaitLeases(f.meter, f.agent)
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		err = errors.Join(err, f.wait(), f.coord.Close())
		if err != nil {
			return nil, fmt.Errorf("fleet set-up: %w", err)
		}
	}

	n := e.count(fleetNominalS, 1)
	var dirs []string
	var results []*runner.RunResult
	var tl tally
	var status []distrib.Status
	m := startMeter()
	for c := 0; c < n; c++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("campaign-%d", c))
		dirs = append(dirs, dir)
		start := time.Now()
		id := fmt.Sprintf("fleet-%d", c)
		root := e.tr.root(id)
		f, err := startFleet(e, dir, false)
		if err != nil {
			return nil, err
		}
		if err := awaitLeases(f.meter, f.agent); err != nil {
			return nil, errors.Join(err, f.wait(), f.coord.Close())
		}
		ready := time.Now()
		out.setupS = append(out.setupS, ready.Sub(start).Seconds())
		var agentErr error
		select {
		case <-f.coord.Done():
		case agentErr = <-f.agent:
			f.agent <- agentErr // wait collects it again
			if agentErr == nil {
				agentErr = errors.New("agent left before the campaign completed")
			}
		}
		settled := time.Now()
		st := f.coord.Status()
		if err := f.wait(); err != nil && agentErr == nil {
			agentErr = err
		}
		var rr *runner.RunResult
		if agentErr == nil {
			rr, agentErr = f.coord.Assemble()
		} else {
			f.coord.Close()
		}
		done := time.Now()
		out.attempted++
		results = append(results, rr)
		status = append(status, st)
		if agentErr != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet campaign %d: %v\n", c, agentErr)
			continue
		}
		out.campaignS = append(out.campaignS, done.Sub(ready).Seconds())
		if e.tr != nil {
			e.tr.record(root, 0, id, "campaign", ready, done)
			if first, _, ok := f.meter.recordWindow(""); ok {
				e.tr.record(0, root, id, "campaign.prefix", ready, first)
				tl.prefixS = append(tl.prefixS, first.Sub(ready).Seconds())
			}
			e.tr.record(0, root, id, "runner.tail", settled, done)
			tl.tailS = append(tl.tailS, done.Sub(settled).Seconds())
		}
	}
	out.use = m.stop()
	out.diskBytes = diskBytes(dirs...)

	var jobs []float64
	for c, rr := range results {
		if rr == nil {
			continue
		}
		st := status[c]
		ji, err := readJournal(filepath.Join(dirs[c], "coord"))
		switch {
		case err != nil:
		case ji.digest != fleetRef.digest:
			err = fmt.Errorf("assembled digest %s, want the single-node %s", ji.digest, fleetRef.digest)
		case st.ScheduledRuns != fleetRef.scheduled:
			err = fmt.Errorf("%d runs scheduled, want %d", st.ScheduledRuns, fleetRef.scheduled)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: fleet campaign %d: %v\n", c, err)
		}
		tl.addResult(rr.Result)
		tl.addJournal(ji)
		for _, u := range st.UnitsDetail {
			jobs = append(jobs, float64(u.Jobs))
		}
	}
	if e.tr == nil {
		return out, nil
	}

	// The same campaign on one node at the same worker count: the base
	// of the fabric tax, and the adaptive schedule's round count (fleet
	// journals carry coordinator-assigned job lists, not rounds).
	start := time.Now()
	_, twin, err := singleNode(paperRequest(true), filepath.Join(e.dir, "single-node"), true)
	if err != nil {
		return nil, err
	}
	out.twinS = time.Since(start).Seconds()
	tl.rounds = twin.rounds * len(results)

	_, cfg, err := load(paperRequest(true))
	if err != nil {
		return nil, err
	}
	if out.layers, err = probeSimTrace(cfg); err != nil {
		return nil, err
	}
	tl.into(out.layers)
	fabricLayers(e.tr, out.layers)
	out.layers["distrib.units"] = metric{float64(len(jobs)), "count"}
	out.layers["distrib.jobs_per_unit_p50"] = metric{median(jobs), "count"}
	return out, nil
}
