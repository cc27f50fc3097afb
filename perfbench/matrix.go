package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"propane/internal/arrestor"
	"propane/internal/campaign"
	"propane/internal/core"
	"propane/internal/runner"
)

// The matrix workload: the paper instance's fixed injection matrix
// (full tier: 13 inputs × 16 bits × 10 instants × 25 cases = 52,000
// runs) through runner.Run on one node at Workers=2, with journal,
// metrics and report.md. Almost all its time is the per-run hot path.
const (
	matrixNominalS  = 15 // seconds of run length per campaign
	matrixSetupReps = 15
	matrixWorkers   = 2
)

// matrixSetup is what a user pays before the campaign starts: resolve
// the instance, build and plan its configuration, create the artifact
// directory.
func matrixSetup(dir string) (campaign.Config, error) {
	_, cfg, err := load(paperRequest(false))
	if err != nil {
		return campaign.Config{}, err
	}
	if _, err := cfg.Plan(); err != nil {
		return campaign.Config{}, err
	}
	return cfg, os.MkdirAll(dir, 0o755)
}

// recordClock notes when a campaign's first and last records settle.
type recordClock struct {
	mu          sync.Mutex
	first, last time.Time
}

func (c *recordClock) onRecord(runner.Record, bool) error {
	now := time.Now()
	c.mu.Lock()
	if c.first.IsZero() {
		c.first = now
	}
	c.last = now
	c.mu.Unlock()
	return nil
}

func runMatrix(e *env) (*outcome, error) {
	out := &outcome{}
	settleDisk()
	for i := 0; i < matrixSetupReps; i++ {
		start := time.Now()
		if _, err := matrixSetup(filepath.Join(e.dir, fmt.Sprintf("setup-%d", i))); err != nil {
			return nil, err
		}
		out.setupS = append(out.setupS, time.Since(start).Seconds())
	}

	n := e.count(matrixNominalS, 1)
	var dirs []string
	var results []*runner.RunResult
	var tl tally
	m := startMeter()
	for c := 0; c < n; c++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("campaign-%d", c))
		dirs = append(dirs, dir)
		start := time.Now()
		cfg, err := matrixSetup(dir)
		if err != nil {
			return nil, err
		}
		ready := time.Now()
		out.setupS = append(out.setupS, ready.Sub(start).Seconds())
		id := fmt.Sprintf("matrix-%d", c)
		root := e.tr.root(id)
		opts := runner.Options{Name: "paper", Tier: runner.TierFull, Dir: dir, Workers: matrixWorkers}
		clock := &recordClock{}
		if e.tr != nil {
			opts.OnRecord = clock.onRecord
		}
		rr, err := runner.Run(cfg, opts)
		done := time.Now()
		out.attempted++
		results = append(results, rr)
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: matrix campaign %d: %v\n", c, err)
			continue
		}
		out.campaignS = append(out.campaignS, done.Sub(ready).Seconds())
		if e.tr != nil {
			e.tr.record(root, 0, id, "campaign", ready, done)
			e.tr.record(0, root, id, "campaign.prefix", ready, clock.first)
			e.tr.record(0, root, id, "runner.tail", clock.last, done)
			tl.prefixS = append(tl.prefixS, clock.first.Sub(ready).Seconds())
			tl.tailS = append(tl.tailS, done.Sub(clock.last).Seconds())
		}
	}
	out.use = m.stop()
	out.diskBytes = diskBytes(dirs...)

	for c, rr := range results {
		if rr == nil {
			continue
		}
		ji, err := readJournal(dirs[c])
		if err == nil {
			err = checkMatrix(rr.Result, ji, matrixRef)
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(os.Stderr, "perfbench: matrix campaign %d: %v\n", c, err)
		}
		tl.addResult(rr.Result)
		tl.addJournal(ji)
	}
	if e.tr != nil {
		_, cfg, err := load(paperRequest(false))
		if err != nil {
			return nil, err
		}
		if out.layers, err = probeSimTrace(cfg); err != nil {
			return nil, err
		}
		tl.into(out.layers)
	}
	return out, nil
}

// checkMatrix compares a fixed-matrix campaign with its committed
// reference: the record-set digest, and the shape of the TOC2
// backtrack tree — 22 paths, with the committed count of non-zero ones
// (10 at the full tier; the paper reports 13).
func checkMatrix(res *campaign.Result, ji journalInfo, ref reference) error {
	if ji.digest != ref.digest {
		return fmt.Errorf("record-set digest %s, want %s", ji.digest, ref.digest)
	}
	tree, err := core.BacktrackTree(res.Matrix, arrestor.SigTOC2)
	if err != nil {
		return err
	}
	if paths, nz := len(tree.Paths()), len(tree.NonZeroPaths()); paths != 22 || nz != ref.nonZeroPaths {
		return fmt.Errorf("TOC2 backtrack tree has %d paths, %d non-zero; want 22 and %d", paths, nz, ref.nonZeroPaths)
	}
	return nil
}
