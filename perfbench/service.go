package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"propane/internal/distrib"
	"propane/internal/runner"
	"propane/internal/service"
	"propane/internal/store"
	"propane/internal/synth"
)

// The service workload: a closed loop of two tenants, each submitting
// its next campaign to the service's HTTP API once its previous one is
// done. A two-agent in-process fleet sharing one memo store executes
// them. 30% of submissions are first seen and execute; the rest repeat
// one of the tenant's earlier submissions and are served from the
// store. Per-campaign fixed costs dominate here.
const (
	serviceRoundNominalS = 21 // seconds of run length per round of the mix
	serviceMinRounds     = 2  // 120 campaigns
	serviceTenants       = 2
	serviceAgents        = 2
	serviceProbeReps     = 5 // per batch
	// Per tenant and round: every registry instance under
	// registryModes distinct adaptive settings, each submitted
	// 1+registryRepeats times, and synthPerRound generated topologies,
	// each submitted 1+synthRepeats times — 30 submissions, 9 of them
	// first seen. The counts put the median turnaround in the middle of
	// the registry repeats and the 90th percentile in the middle of the
	// registry first-seen executions, not on the edge between two kinds.
	registryModes   = 2
	registryRepeats = 3
	synthPerRound   = 3
	synthRepeats    = 1
	// statusPoll is how often a tenant polls its campaign's state.
	statusPoll = time.Millisecond
)

// serviceInstances are the quick-tier registry instances in the mix,
// chosen for like cost (about 0.5 s of simulation each).
var serviceInstances = []string{"paper", "tolerance", "error-models"}

// request is one submission. Requests with equal keys are the same
// campaign: the second and later are served from the memo store.
type request struct {
	key  string
	body service.SubmitRequest
}

// serviceMix draws each tenant's submission sequence from the seed.
// Each instance runs with adaptive sampling off in one draw and forced,
// at an ε no other submission uses, in all others. The seed moves
// parameters, topologies and order but not the count of each kind, so
// the work per run stays alike across seeds; and since no two tenants
// share a campaign, which submission executes never depends on timing.
func serviceMix(seed int64, rounds int) [][]request {
	rng := rand.New(rand.NewSource(seed))
	slots := serviceTenants * rounds * registryModes
	offSlot := make([]int, len(serviceInstances))
	for i := range offSlot {
		offSlot[i] = rng.Intn(slots)
	}
	eps := rng.Perm(slots * len(serviceInstances))
	docs := make(map[string]bool)
	seqs := make([][]request, serviceTenants)
	for r := 0; r < rounds; r++ {
		for t := 0; t < serviceTenants; t++ {
			var items []request
			for mode := 0; mode < registryModes; mode++ {
				slot := (r*serviceTenants+t)*registryModes + mode
				for i, inst := range serviceInstances {
					body := service.SubmitRequest{Instance: inst, Tier: string(runner.TierQuick)}
					if slot != offSlot[i] {
						body.Adaptive = "force"
						body.CIEpsilon = 0.04 + 0.001*float64(eps[slot*len(serviceInstances)+i])
					}
					req := request{key: fmt.Sprintf("%s|%s|%g", inst, body.Adaptive, body.CIEpsilon), body: body}
					for k := 0; k <= registryRepeats; k++ {
						items = append(items, req)
					}
				}
			}
			for d := 0; d < synthPerRound; d++ {
				var doc []byte
				for {
					var err error
					doc, err = json.Marshal(synth.GenerateTopology(rng.Int63()))
					if err != nil {
						panic(err) // a Spec is plain data
					}
					if !docs[string(doc)] {
						break
					}
				}
				docs[string(doc)] = true
				req := request{key: "doc|" + sha12(doc), body: service.SubmitRequest{Document: string(doc), Tier: string(runner.TierQuick)}}
				for k := 0; k <= synthRepeats; k++ {
					items = append(items, req)
				}
			}
			rng.Shuffle(len(items), func(a, b int) { items[a], items[b] = items[b], items[a] })
			seqs[t] = append(seqs[t], items...)
		}
	}
	return seqs
}

func sha12(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:12]
}

// svcFleet is the service with its store, listener and agents.
type svcFleet struct {
	st     *store.Store
	svc    *service.Service
	srv    *http.Server
	meter  *rpcMeter
	url    string
	cancel context.CancelFunc
	agents chan error
}

func startService(e *env, dir string, probe bool) (*svcFleet, error) {
	st, err := store.Open(filepath.Join(dir, "store"), store.Options{})
	if err != nil {
		return nil, err
	}
	svc, err := service.Open(service.Options{Dir: filepath.Join(dir, "svc"), Store: st})
	if err != nil {
		st.Close()
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		st.Close()
		return nil, err
	}
	f := &svcFleet{
		st: st, svc: svc,
		meter:  newRPCMeter(svc.Handler(), e.tr, serviceAgents, probe),
		url:    "http://" + l.Addr().String(),
		agents: make(chan error, serviceAgents),
	}
	f.srv = distrib.NewServer(f.meter)
	go f.srv.Serve(l)
	var memo runner.MemoStore = st
	if e.tr != nil {
		memo = timedMemo{st: st, tr: e.tr}
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for a := 0; a < serviceAgents; a++ {
		opts := distrib.WorkerOptions{
			Name:    fmt.Sprintf("agent-%d", a),
			Dir:     filepath.Join(dir, "scratch"),
			Workers: 1,
			Memo:    memo,
		}
		go func() { f.agents <- distrib.RunWorkerContext(ctx, f.url, opts) }()
	}
	return f, nil
}

// close shuts the service down — parked lease polls then answer
// "done", so the agents leave — waits for the agents and closes the
// server and store.
func (f *svcFleet) close() error {
	errs := []error{f.svc.Close()}
	for a := 0; a < serviceAgents; a++ {
		errs = append(errs, <-f.agents)
	}
	f.cancel()
	_ = f.srv.Close()
	return errors.Join(append(errs, f.st.Close())...)
}

// submission is one campaign of the closed loop, as its tenant saw it.
type submission struct {
	key          string
	id           string
	submit, done time.Time
	info         service.CampaignInfo
	err          error
}

// submit posts one campaign and polls its state until it is terminal.
func submit(client *http.Client, f *svcFleet, tenant string, rq request) submission {
	s := submission{key: rq.key, submit: time.Now()}
	body, err := json.Marshal(rq.body)
	if err != nil {
		s.err = err
		return s
	}
	hreq, err := http.NewRequest(http.MethodPost, f.url+service.PathCampaigns, bytes.NewReader(body))
	if err != nil {
		s.err = err
		return s
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(distrib.HeaderTenant, tenant)
	resp, err := client.Do(hreq)
	if err != nil {
		s.err = err
		return s
	}
	var info service.CampaignInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		s.err = fmt.Errorf("submit answered %s", resp.Status)
		return s
	}
	if err != nil {
		s.err = fmt.Errorf("decoding submit reply: %w", err)
		return s
	}
	s.id = info.ID
	for {
		ci, ok := f.svc.Campaign(s.id)
		if ok && (ci.State == service.StateDone || ci.State == service.StateFailed) {
			s.done = time.Now()
			s.info = ci
			break
		}
		time.Sleep(statusPoll)
	}
	if s.info.State == service.StateFailed {
		s.err = fmt.Errorf("campaign %s failed: %s", s.id, s.info.Error)
	}
	return s
}

// probeService times serviceProbeReps set-ups that stop as soon as
// the fleet is ready. It first collects garbage and flushes the disk,
// so that neither a collection nor writeback left pending by earlier
// work lands on whichever set-up happens to run into it.
func probeService(e *env, out *outcome, batch string) error {
	runtime.GC()
	settleDisk()
	for i := 0; i < serviceProbeReps; i++ {
		start := time.Now()
		f, err := startService(e, filepath.Join(e.dir, fmt.Sprintf("setup-%s%d", batch, i)), true)
		if err != nil {
			return err
		}
		err = awaitLeases(f.meter, f.agents)
		out.setupS = append(out.setupS, time.Since(start).Seconds())
		if err := errors.Join(err, f.close()); err != nil {
			return fmt.Errorf("service set-up: %w", err)
		}
	}
	return nil
}

func runService(e *env) (*outcome, error) {
	rounds := e.count(serviceRoundNominalS, serviceMinRounds)
	seqs := serviceMix(e.seed, rounds)

	// Set-up probes run in three batches — before the reference runs,
	// after them, and after the timed loop — so the median spans the
	// process's life rather than one moment of it.
	out := &outcome{}
	if err := probeService(e, out, "a"); err != nil {
		return nil, err
	}

	// Reference digests, one single-node run per distinct submission.
	refs := make(map[string]journalInfo)
	for _, seq := range seqs {
		for _, rq := range seq {
			if _, ok := refs[rq.key]; ok {
				continue
			}
			_, ji, err := singleNode(rq.body, filepath.Join(e.dir, "reference", fmt.Sprint(len(refs))), false)
			if err != nil {
				return nil, fmt.Errorf("reference run %s: %w", rq.key, err)
			}
			refs[rq.key] = ji
		}
	}

	if err := probeService(e, out, "b"); err != nil {
		return nil, err
	}

	dir := filepath.Join(e.dir, "run")
	runtime.GC()
	settleDisk()
	start := time.Now()
	f, err := startService(e, dir, false)
	if err != nil {
		return nil, err
	}
	if err := awaitLeases(f.meter, f.agents); err != nil {
		return nil, errors.Join(err, f.close())
	}
	out.setupS = append(out.setupS, time.Since(start).Seconds())

	transport := &http.Transport{}
	client := &http.Client{Transport: transport, Timeout: time.Minute}
	subs := make([][]submission, serviceTenants)
	var wg sync.WaitGroup
	m := startMeter()
	for t := range seqs {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", t)
			for _, rq := range seqs[t] {
				subs[t] = append(subs[t], submit(client, f, tenant, rq))
			}
		}(t)
	}
	wg.Wait()
	out.use = m.stop()
	transport.CloseIdleConnections()

	var tl tally
	var queue, exec []float64
	for _, ss := range subs {
		for _, s := range ss {
			out.attempted++
			if s.err == nil {
				ji, err := readJournal(filepath.Join(dir, "svc", "campaigns", s.id, "coord"))
				if err == nil && ji.digest != refs[s.key].digest {
					err = fmt.Errorf("digest %s, want the single-node %s", ji.digest, refs[s.key].digest)
				}
				s.err = err
				tl.addJournal(ji)
			}
			if s.err != nil {
				out.failed++
				fmt.Fprintf(os.Stderr, "perfbench: service campaign %s (%s): %v\n", s.id, s.key, s.err)
				continue
			}
			out.campaignS = append(out.campaignS, s.done.Sub(s.submit).Seconds())
			if e.tr == nil {
				continue
			}
			if rr, ok := f.svc.Result(s.id); ok {
				tl.addResult(rr.Result)
			}
			tl.rounds += refs[s.key].rounds
			started, finished := time.UnixMilli(s.info.StartedMs), time.UnixMilli(s.info.DoneMs)
			queue = append(queue, float64(s.info.StartedMs-s.info.SubmittedMs)/1e3)
			exec = append(exec, float64(s.info.DoneMs-s.info.StartedMs)/1e3)
			root := e.tr.root(s.id)
			e.tr.record(root, 0, s.id, "campaign", s.submit, s.done)
			e.tr.record(0, root, s.id, "service.queue", time.UnixMilli(s.info.SubmittedMs), started)
			e.tr.record(0, root, s.id, "service.exec", started, finished)
			if first, last, ok := f.meter.recordWindow(s.id); ok {
				tl.prefixS = append(tl.prefixS, first.Sub(started).Seconds())
				tl.tailS = append(tl.tailS, finished.Sub(last).Seconds())
			}
		}
	}
	if err := f.close(); err != nil {
		return nil, fmt.Errorf("service shutdown: %w", err)
	}
	out.diskBytes = diskBytes(filepath.Join(dir, "svc"), filepath.Join(dir, "store"))
	if err := probeService(e, out, "c"); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}

	_, cfg, err := load(service.SubmitRequest{Instance: "paper", Tier: string(runner.TierQuick)})
	if err != nil {
		return nil, err
	}
	if out.layers, err = probeSimTrace(cfg); err != nil {
		return nil, err
	}
	tl.into(out.layers)
	fabricLayers(e.tr, out.layers)
	out.layers["store.bytes"] = metric{float64(diskBytes(filepath.Join(dir, "store"))), "bytes"}
	out.layers["service.submit_ms_p50"] = metric{e.tr.quantile("service.submit_ms", 0.5), "ms"}
	out.layers["service.queue_wait_s_p50"] = metric{median(queue), "s"}
	out.layers["service.exec_s_p50"] = metric{median(exec), "s"}
	out.layers["service.exec_s_p90"] = metric{quantile(exec, 0.9), "s"}
	out.layers["service.refused"] = metric{e.tr.count("service.refused"), "count"}
	out.layers["service.lease_wait_ms_p50"] = metric{e.tr.quantile("distrib.lease_ms", 0.5), "ms"}
	return out, nil
}
