package campaign

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"propane/internal/estimate"
	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/sim"
	"propane/internal/stats"
	"propane/internal/trace"
)

// Adaptive sequential estimation. The fixed campaign matrix injects
// bits × instants × cases at every location whether the pair
// permeabilities there are obviously 0, obviously 1, or genuinely
// uncertain. Adaptive mode replaces the enumeration with sequential
// sampling: per injection location (module input), jobs are drawn in a
// deterministic pseudo-random order from the location's *fireable*
// population (the golden read log proves, per (case, instant), whether
// a trap can fire at all — provably unfired jobs contribute nothing to
// any estimate and are excluded up front), and sampling stops at the
// first batch checkpoint where every pair of the location — plus the
// location's system-propagation fraction — has a conservative
// confidence interval (Wilson ∪ Clopper-Pearson at a
// Bonferroni-corrected level, see internal/stats) with half-width
// ≤ ε. Locations whose population is empty are degenerate: the
// analytical read-log bound proves no sample can fire, so they stop
// with zero samples, exactly matching the full matrix's estimate of 0.
//
// Determinism of the stopping decision is the load-bearing property:
// the job set must be a pure function of (config, ε), never of worker
// count, dispatch interleaving or resume timing. It holds because
// (a) each location's sample order is a deterministic permutation,
// (b) dispatch never passes the location's current batch checkpoint,
// so a stopping decision at checkpoint C sees the settled outcomes of
// exactly the first C samples, and (c) each sample's outcome is
// deterministic (the simulator is; the documented caveats are the
// wall-clock budget backstop and worker-crash quarantines, which are
// environmental by design). Importance ordering — predicted
// permeability × remaining uncertainty — picks which live location
// dispatches next and therefore shapes wall-clock, but never the job
// set: per-location prefixes are independent.

// AdaptiveMode selects sequential (CI-driven) sampling instead of the
// fixed bits × instants × cases enumeration.
type AdaptiveMode int

const (
	// AdaptiveOff (the default) executes the full fixed matrix —
	// bit-identical to campaigns recorded before adaptive mode existed.
	AdaptiveOff AdaptiveMode = iota
	// AdaptiveAuto samples sequentially when the campaign is large
	// enough for stopping to pay (at least adaptiveAutoMin jobs per
	// location) and no Instrument hook is configured (instrumented runs
	// may carry recovery mechanisms that invalidate the golden-run
	// firing predictions the sampler's population is built from).
	AdaptiveAuto
	// AdaptiveForce samples sequentially unconditionally.
	AdaptiveForce
)

// String renders the mode in the spelling ParseAdaptiveMode accepts —
// the wire and flag vocabulary shared by the CLIs and the service.
func (m AdaptiveMode) String() string {
	switch m {
	case AdaptiveAuto:
		return "auto"
	case AdaptiveForce:
		return "force"
	}
	return "off"
}

// ParseAdaptiveMode reads the flag/wire spelling of an adaptive mode.
// The empty string is AdaptiveOff, so absent JSON fields and unset
// flags both mean "keep the fixed matrix".
func ParseAdaptiveMode(s string) (AdaptiveMode, error) {
	switch s {
	case "", "off":
		return AdaptiveOff, nil
	case "auto":
		return AdaptiveAuto, nil
	case "force":
		return AdaptiveForce, nil
	}
	return AdaptiveOff, fmt.Errorf("campaign: unknown adaptive mode %q (want off, auto or force)", s)
}

const (
	// defaultCIEpsilon is the stopping half-width when Config.CIEpsilon
	// is zero.
	defaultCIEpsilon = 0.05
	// adaptiveAlpha is the family-wise error rate split over the
	// monitored quantities (all pairs plus one propagation fraction per
	// location) by Bonferroni correction.
	adaptiveAlpha = 0.05
	// adaptivePilot is the first batch checkpoint per location; later
	// checkpoints double until the population is exhausted.
	adaptivePilot = 64
	// adaptiveAutoMin is the planned-jobs-per-location floor below
	// which AdaptiveAuto falls back to the full matrix.
	adaptiveAutoMin = 512
)

// adaptiveEnabled decides whether this campaign samples sequentially.
func (c Config) adaptiveEnabled() bool {
	switch c.Adaptive {
	case AdaptiveOff:
		return false
	case AdaptiveAuto:
		if c.Instrument != nil {
			return false
		}
		errors := len(c.Bits)
		if len(c.Models) > 0 {
			errors = len(c.Models)
		}
		return len(c.Times)*errors*len(c.TestCases) >= adaptiveAutoMin
	}
	return true
}

// AdaptiveEnabled reports whether this configuration resolves to
// sequential sampling — the effective state orchestration layers
// (internal/runner, internal/distrib) pin in config digests: an
// AdaptiveAuto campaign that declines (too small, instrumented) has
// exactly the full-matrix job set and must share its digest.
func (c Config) AdaptiveEnabled() bool { return c.adaptiveEnabled() }

// ResolvedCIEpsilon returns the stopping half-width in effect
// (Config.CIEpsilon, or the 0.05 default when zero).
func (c Config) ResolvedCIEpsilon() float64 {
	if c.CIEpsilon > 0 {
		return c.CIEpsilon
	}
	return defaultCIEpsilon
}

// AdaptiveStats documents how the sequential sampler spent (and saved)
// its budget; attached to Result.Adaptive for adaptive campaigns.
type AdaptiveStats struct {
	// Epsilon is the stopping half-width; Alpha the per-quantity
	// (Bonferroni-corrected) significance level behind the intervals.
	Epsilon, Alpha float64
	// FullRuns is the fixed-matrix job count this campaign replaces.
	FullRuns int
	// Population counts the fireable jobs (golden read log) across all
	// locations; Scheduled the jobs the stopping rule actually asked
	// for.
	Population, Scheduled int
	// StoppedEarly, Degenerate and Exhausted classify the locations:
	// closed by the CI rule, proven unable to fire (zero samples), or
	// sampled to the end of their population.
	StoppedEarly, Degenerate, Exhausted int
}

// schedJob identifies one (plan entry, test case) sample.
type schedJob struct {
	planIdx, caseIdx int
}

// schedRef locates a job in the schedule (loc -1: not fireable).
type schedRef struct {
	loc, pos int32
}

// schedContrib is one settled sample's tally contribution.
type schedContrib struct {
	settled bool
	trial   bool // fired and completed: counts toward every denominator
	sysErr  bool // propagated to a system output
	errOut  []bool
}

// schedLocation is the sequential sampler's per-location state.
type schedLocation struct {
	module, signal string
	outputs        []string
	jobs           []schedJob
	contrib        []schedContrib
	// prefix: jobs [0, prefix) are settled and folded into the
	// tallies; checkpoint: the batch boundary the stopping rule
	// evaluates at next; next: the first undispatched position.
	prefix, checkpoint, next int
	trials, sysErrs          int
	errs                     []int
	stopped, exhausted       bool
	score, unc               float64
}

// roundOf returns the 1-based batch ordinal of a sample position under
// the pilot-then-doubling checkpoint schedule.
func (loc *schedLocation) roundOf(pos int) int {
	c := adaptivePilot
	if c > len(loc.jobs) {
		c = len(loc.jobs)
	}
	r := 1
	for pos >= c {
		c *= 2
		if c > len(loc.jobs) {
			c = len(loc.jobs)
		}
		r++
	}
	return r
}

// adaptiveScheduler is the sequential sampling state machine shared by
// the in-process campaign loop (Run) and, via AdaptivePlanner, the
// orchestration layers.
type adaptiveScheduler struct {
	window     sim.Millis
	eps, alpha float64

	mu    sync.Mutex
	locs  []*schedLocation
	jobs  *JobIndex
	byJob []schedRef // by job index
	wake  chan struct{}

	population, dispatched, settled, fullRuns int
}

// newAdaptiveScheduler builds the deterministic sampling schedule: per
// location, the fireable jobs (per the golden read log) in
// hash-permuted order, seeded with importance priors from the
// analytical prediction.
func newAdaptiveScheduler(cfg Config, plan []inject.Injection, preds []casePredictions, pred *estimate.Prediction) (*adaptiveScheduler, error) {
	if preds == nil {
		return nil, invalidf("campaign: adaptive sampling needs golden-run predictions")
	}
	sys := cfg.topology()
	cases := len(cfg.TestCases)
	s := &adaptiveScheduler{
		window:   cfg.DirectWindowMs,
		eps:      cfg.ResolvedCIEpsilon(),
		jobs:     NewJobIndex(plan, cases),
		byJob:    make([]schedRef, len(plan)*cases),
		wake:     make(chan struct{}, 1),
		fullRuns: len(plan) * cases,
	}
	for i := range s.byJob {
		s.byJob[i].loc = -1
	}
	// The first pass marks each fireable job's location in byJob and
	// counts each location's, so the second fills presized slices in
	// job order.
	locIdx := make(map[[2]string]int)
	var counts []int
	for pi, inj := range plan {
		lk := [2]string{inj.Module, inj.Signal}
		li, ok := locIdx[lk]
		if !ok {
			mod, err := sys.Module(inj.Module)
			if err != nil {
				return nil, err
			}
			loc := &schedLocation{module: inj.Module, signal: inj.Signal, unc: 0.5}
			for _, o := range mod.Outputs {
				loc.outputs = append(loc.outputs, o.Signal)
			}
			loc.errs = make([]int, len(loc.outputs))
			if pred != nil {
				loc.score = pred.LocationScore(inj.Module, inj.Signal)
			}
			li = len(s.locs)
			locIdx[lk] = li
			s.locs = append(s.locs, loc)
			counts = append(counts, 0)
		}
		pk := portKey{module: inj.Module, signal: inj.Signal}
		for ci := range cfg.TestCases {
			// Only the campaign's fault mode has predictions; the other
			// map is nil and reads as "cannot fire".
			if preds[ci].transient[pk][inj.At].fires || preds[ci].persistent[pk][inj.At].fires {
				s.byJob[pi*cases+ci].loc = int32(li)
				counts[li]++
			}
		}
	}
	type orderedJob struct {
		key uint64
		job schedJob
	}
	perLoc := make([][]orderedJob, len(s.locs))
	for li, n := range counts {
		perLoc[li] = make([]orderedJob, 0, n)
		s.locs[li].jobs = make([]schedJob, n)
	}
	var prefix, digits []byte // "<injection>#" of plan[prefixOf], "<case>"
	prefixOf := -1
	for j, ref := range s.byJob {
		if ref.loc < 0 {
			continue
		}
		pi, ci := j/cases, j%cases
		// The permutation key is the FNV-1a hash of
		// "<injection>#<case>", ties broken by that string. FNV
		// streams bytes, so writing the prefix and then the digits
		// hashes the string without formatting it per job.
		if pi != prefixOf {
			prefix, prefixOf = append(append(prefix[:0], plan[pi].String()...), '#'), pi
		}
		digits = strconv.AppendInt(digits[:0], int64(ci), 10)
		h := fnv.New64a()
		h.Write(prefix)
		h.Write(digits)
		perLoc[ref.loc] = append(perLoc[ref.loc], orderedJob{
			key: h.Sum64(),
			job: schedJob{planIdx: pi, caseIdx: ci},
		})
	}
	for li, loc := range s.locs {
		jobs := perLoc[li]
		// The permutation de-correlates the sampled prefix from the
		// plan's enumeration order so a prefix is an unbiased sample of
		// the location's full (instant × error × case) grid; hashing
		// job identity keeps it a pure function of the config.
		sort.Slice(jobs, func(a, b int) bool {
			if jobs[a].key != jobs[b].key {
				return jobs[a].key < jobs[b].key
			}
			tie := func(j schedJob) string { return plan[j.planIdx].String() + "#" + strconv.Itoa(j.caseIdx) }
			return tie(jobs[a].job) < tie(jobs[b].job)
		})
		for pos, oj := range jobs {
			s.byJob[oj.job.planIdx*cases+oj.job.caseIdx] = schedRef{loc: int32(li), pos: int32(pos)}
			loc.jobs[pos] = oj.job
		}
		loc.contrib = make([]schedContrib, len(loc.jobs))
		loc.checkpoint = adaptivePilot
		if loc.checkpoint > len(loc.jobs) {
			loc.checkpoint = len(loc.jobs)
		}
		if len(loc.jobs) == 0 {
			// Degenerate: the read log proves no sample can fire —
			// every estimate of this location is exactly 0 with or
			// without sampling.
			loc.stopped = true
		}
		s.population += len(loc.jobs)
	}
	// Bonferroni share: one interval per pair plus one propagation
	// fraction per location, over the locations actually planned.
	m := len(s.locs)
	for _, loc := range s.locs {
		m += len(loc.outputs)
	}
	if m < 1 {
		m = 1
	}
	s.alpha = adaptiveAlpha / float64(m)
	return s, nil
}

// observe folds one settled sample into the tallies, advancing the
// location's settled prefix and evaluating any batch checkpoint the
// prefix reaches. It returns the sample's batch ordinal (1-based),
// recorded on the journal as RunRecord.Round.
func (s *adaptiveScheduler) observe(out runOutcome) (int, error) {
	job, ok := s.jobs.Job(out.injection, out.caseIdx)
	s.mu.Lock()
	defer func() {
		s.mu.Unlock()
		select {
		case s.wake <- struct{}{}:
		default:
		}
	}()
	if !ok || s.byJob[job].loc < 0 {
		return 0, fmt.Errorf("campaign: adaptive scheduler got a record outside its schedule: %v case %d", out.injection, out.caseIdx)
	}
	ref := s.byJob[job]
	loc, pos := s.locs[ref.loc], int(ref.pos)
	if loc.contrib[pos].settled {
		return 0, fmt.Errorf("campaign: adaptive scheduler got %v case %d twice", out.injection, out.caseIdx)
	}
	c := schedContrib{settled: true, errOut: make([]bool, len(loc.outputs))}
	switch out.outcome {
	case OutcomeQuarantined, OutcomeCrash, OutcomeHang:
		// Excluded from every denominator, exactly as in aggregation.
	default:
		if out.fired {
			c.trial = true
			c.sysErr = out.systemDiff
			for o, sig := range loc.outputs {
				d, ok := out.outputDiff(sig)
				if !ok {
					continue
				}
				if s.window == 0 || d.First <= out.firedAt+s.window {
					c.errOut[o] = true
				}
			}
		}
	}
	loc.contrib[pos] = c
	s.settled++
	// Fold settled samples in position order, one at a time, so every
	// checkpoint evaluation sees the tallies of exactly its prefix —
	// replaying a journal whose records arrive out of order reproduces
	// the live run's decisions bit-identically.
	for !loc.stopped && loc.prefix < len(loc.jobs) && loc.contrib[loc.prefix].settled {
		f := loc.contrib[loc.prefix]
		if f.trial {
			loc.trials++
			if f.sysErr {
				loc.sysErrs++
			}
			for o, e := range f.errOut {
				if e {
					loc.errs[o]++
				}
			}
		}
		loc.prefix++
		if loc.prefix == loc.checkpoint {
			s.evaluateLocked(loc)
		}
	}
	return loc.roundOf(pos), nil
}

// evaluateLocked applies the stopping rule at a batch checkpoint: the
// location closes once every monitored quantity — each pair's
// permeability and the location's system-propagation fraction — has a
// conservative interval of half-width ≤ ε over the settled prefix.
func (s *adaptiveScheduler) evaluateLocked(loc *schedLocation) {
	maxHW := 0.5
	if loc.trials > 0 {
		maxHW = 0.0
		counts := append(append([]int(nil), loc.errs...), loc.sysErrs)
		for _, n := range counts {
			iv, err := stats.StoppingInterval(n, loc.trials, s.alpha)
			if err != nil {
				maxHW = 0.5
				break
			}
			if hw := iv.HalfWidth(); hw > maxHW {
				maxHW = hw
			}
		}
	}
	loc.unc = maxHW
	if loc.trials > 0 && maxHW <= s.eps {
		loc.stopped = true
		return
	}
	if loc.checkpoint >= len(loc.jobs) {
		loc.stopped = true
		loc.exhausted = true
		return
	}
	loc.checkpoint *= 2
	if loc.checkpoint > len(loc.jobs) {
		loc.checkpoint = len(loc.jobs)
	}
}

// claimLocked hands out the next sample of the most important live
// location — importance = analytical prior × remaining uncertainty.
// finished distinguishes "the schedule is complete" from "all live
// batches are fully in flight, wait for settles".
func (s *adaptiveScheduler) claimLocked() (j schedJob, ok, finished bool) {
	best := -1
	var bestPri float64
	finished = true
	for i, loc := range s.locs {
		if loc.stopped {
			continue
		}
		finished = false
		for loc.next < loc.checkpoint && loc.contrib[loc.next].settled {
			// Settled ahead of dispatch (journal replay): skip.
			loc.next++
		}
		if loc.next >= loc.checkpoint {
			continue
		}
		pri := loc.score * loc.unc
		if best == -1 || pri > bestPri {
			best, bestPri = i, pri
		}
	}
	if best == -1 {
		return schedJob{}, false, finished
	}
	loc := s.locs[best]
	j = loc.jobs[loc.next]
	loc.next++
	s.dispatched++
	return j, true, false
}

// next blocks until a sample is claimable, returning false when the
// schedule is complete (or done closes). Single-consumer.
func (s *adaptiveScheduler) next(done <-chan struct{}) (schedJob, bool) {
	for {
		s.mu.Lock()
		j, ok, finished := s.claimLocked()
		s.mu.Unlock()
		if ok {
			return j, true
		}
		if finished {
			return schedJob{}, false
		}
		select {
		case <-s.wake:
		case <-done:
			return schedJob{}, false
		}
	}
}

// done reports whether every location has stopped.
func (s *adaptiveScheduler) done() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, loc := range s.locs {
		if !loc.stopped {
			return false
		}
	}
	return true
}

// stats snapshots the sampler's bookkeeping.
func (s *adaptiveScheduler) stats() AdaptiveStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := AdaptiveStats{
		Epsilon:    s.eps,
		Alpha:      s.alpha,
		FullRuns:   s.fullRuns,
		Population: s.population,
	}
	for _, loc := range s.locs {
		for pos := range loc.contrib {
			if pos < loc.next || loc.contrib[pos].settled {
				st.Scheduled++
			}
		}
		switch {
		case len(loc.jobs) == 0:
			st.Degenerate++
		case loc.exhausted:
			st.Exhausted++
		case loc.stopped:
			st.StoppedEarly++
		}
	}
	return st
}

// goldenActivity measures, per signal, the mean fraction of golden-run
// ticks on which the signal changed value — the activity weights the
// analytical estimator (internal/estimate) sharpens its priors with.
func goldenActivity(goldens []*trace.Trace) map[string]float64 {
	if len(goldens) == 0 {
		return nil
	}
	acc := make(map[string]float64)
	for _, g := range goldens {
		if g == nil {
			continue
		}
		for _, sig := range g.Signals() {
			changes, samples := g.Changes(sig)
			if samples < 2 {
				continue
			}
			acc[sig] += float64(changes) / float64(samples-1)
		}
	}
	for k := range acc {
		acc[k] /= float64(len(goldens))
	}
	return acc
}

// AdaptivePlanner exposes the sequential sampling schedule to external
// execution drivers: the distributed coordinator carves work units
// from its frontier, feeds it every accepted record and detects
// completion with it, and assembly proves completeness with that same
// planner and takes Result.Adaptive from it (Golden.Fold).
// Golden.Planner builds one. The planner is deterministic: two
// planners over the same Config claim the same schedule, and feeding
// a finished campaign's journal back through Observe reproduces every
// stopping decision bit-identically.
type AdaptivePlanner struct {
	sched *adaptiveScheduler
	sys   *model.System
	cases int
}

// Planner builds the deterministic sampling schedule of the adaptive
// configuration cfg from the recorded Golden Runs: their firing
// predictions give the fireable populations, their signal activity
// the analytical priors.
func (g *Golden) Planner(cfg Config) (*AdaptivePlanner, error) {
	if err := g.check(cfg); err != nil {
		return nil, err
	}
	if !cfg.adaptiveEnabled() {
		return nil, invalidf("campaign: configuration is not adaptive")
	}
	plan, err := cfg.Plan()
	if err != nil {
		return nil, err
	}
	sys := cfg.topology()
	sched, err := newAdaptiveScheduler(cfg, plan, g.preds, g.predict(sys))
	if err != nil {
		return nil, err
	}
	return &AdaptivePlanner{sched: sched, sys: sys, cases: len(cfg.TestCases)}, nil
}

// Observe feeds one settled record (journal replay or a freshly
// accepted upload) into the schedule. Records outside the schedule or
// observed twice are errors — coverage proofs rely on that strictness.
func (p *AdaptivePlanner) Observe(rec RunRecord) error {
	out, err := recordOutcome(p.sys, rec)
	if err != nil {
		return err
	}
	_, err = p.sched.observe(out)
	return err
}

// Claim hands out up to max unclaimed samples as global job indices
// (plan index × #cases + case index — the journal numbering), in
// importance order. Claimed samples are never handed out again; a
// crashed worker's unit keeps its job list and is re-leased, not
// re-claimed.
func (p *AdaptivePlanner) Claim(max int) []int {
	s := p.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []int
	for len(out) < max {
		j, ok, _ := s.claimLocked()
		if !ok {
			break
		}
		out = append(out, j.planIdx*p.cases+j.caseIdx)
	}
	return out
}

// Done reports whether the schedule is complete: every location
// stopped, which implies every claimed sample has settled.
func (p *AdaptivePlanner) Done() bool { return p.sched.done() }

// Settled returns how many samples have been observed.
func (p *AdaptivePlanner) Settled() int {
	p.sched.mu.Lock()
	defer p.sched.mu.Unlock()
	return p.sched.settled
}

// Outstanding returns how many claimed samples are not yet settled.
func (p *AdaptivePlanner) Outstanding() int {
	s := p.sched
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, loc := range s.locs {
		for pos := 0; pos < loc.next; pos++ {
			if !loc.contrib[pos].settled {
				n++
			}
		}
	}
	return n
}

// Population returns the fireable sample count across all locations —
// the adaptive upper bound on executed jobs.
func (p *AdaptivePlanner) Population() int {
	p.sched.mu.Lock()
	defer p.sched.mu.Unlock()
	return p.sched.population
}

// Stats snapshots the sampler's bookkeeping.
func (p *AdaptivePlanner) Stats() AdaptiveStats { return p.sched.stats() }
