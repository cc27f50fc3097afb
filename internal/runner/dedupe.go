package runner

import (
	"fmt"
	"sort"
	"strings"

	"propane/internal/campaign"
	"propane/internal/model"
	"propane/internal/report"
	"propane/internal/sim"
)

// Failure dedupe: a large campaign produces thousands of deviating
// runs, but most repeat the same propagation over and over. Runs are
// fingerprinted by (injected module, input signal, set of deviating
// module outputs, bucketed system-failure latency); the run with the
// lowest job index in each class is kept as the exemplar and the rest
// only increment a counter, so novel propagations stay visible in the
// artifact listing. Job order, unlike completion order, is the same
// for every worker count and every resume, so failures.md is too.

// latencyBucketMs quantises propagation latencies: two runs whose
// system failures appear within the same 100 ms window after the trap
// fired are considered the same failure mode.
const latencyBucketMs = 100

// deduper accumulates failure equivalence classes. It is driven from
// the campaign's serial observer path, so it needs no locking.
type deduper struct {
	sys     *model.System
	classes map[string]*failureClass
}

// failureClass is one catalog entry: its exemplar's description and
// job index, and how many runs fell into it.
type failureClass struct {
	desc  report.FailureCase
	job   int
	count int
}

func newDeduper(sys *model.System) *deduper {
	return &deduper{sys: sys, classes: make(map[string]*failureClass)}
}

// add folds job's run into the catalog. Non-deviating completed runs
// are ignored; crashes, hangs and quarantined jobs are always
// catalogued, classed by injection location so a panicking module
// surfaces as one line, not thousands.
func (d *deduper) add(job int, rec campaign.RunRecord) {
	switch rec.Outcome {
	case campaign.OutcomeCrash, campaign.OutcomeHang, campaign.OutcomeQuarantined:
		fp := fmt.Sprintf("%s %s/%s", rec.Outcome, rec.Injection.Module, rec.Injection.Signal)
		if c := d.exemplar(fp, job); c != nil {
			example := fmt.Sprintf("%v case %d", rec.Injection, rec.CaseIndex)
			if rec.Detail != "" {
				example += ": " + rec.Detail
			}
			c.desc = report.FailureCase{
				Fingerprint:     fp,
				Kind:            string(rec.Outcome),
				Module:          rec.Injection.Module,
				Signal:          rec.Injection.Signal,
				LatencyBucketMs: -1,
				Example:         example,
			}
		}
		return
	}
	if !rec.Fired {
		return
	}
	mod, err := d.sys.Module(rec.Injection.Module)
	if err != nil {
		return
	}
	var outputs []string
	for _, o := range mod.Outputs {
		if diff, ok := rec.Diffs[o.Signal]; ok && diff.Differs() {
			outputs = append(outputs, o.Signal)
		}
	}
	if len(outputs) == 0 && !rec.SystemFailure {
		return // the error never escaped the module
	}
	sort.Strings(outputs)

	bucket := sim.Millis(-1)
	if rec.SystemFailure {
		bucket = (rec.FailureAt - rec.FiredAt) / latencyBucketMs * latencyBucketMs
	}
	fp := fmt.Sprintf("%s/%s->{%s}@%d",
		rec.Injection.Module, rec.Injection.Signal, strings.Join(outputs, ","), bucket)
	if c := d.exemplar(fp, job); c != nil {
		c.desc = report.FailureCase{
			Fingerprint:     fp,
			Kind:            "deviation",
			Module:          rec.Injection.Module,
			Signal:          rec.Injection.Signal,
			Outputs:         outputs,
			LatencyBucketMs: int64(bucket),
			Example:         fmt.Sprintf("%v case %d", rec.Injection, rec.CaseIndex),
		}
	}
}

// exemplar counts job's run in class fp. It returns the class when the
// run becomes its exemplar — the class is new, or the run precedes the
// exemplar in job order — for the caller to describe, and nil
// otherwise, so most runs format no description.
func (d *deduper) exemplar(fp string, job int) *failureClass {
	c, ok := d.classes[fp]
	if !ok {
		c = &failureClass{}
		d.classes[fp] = c
	}
	c.count++
	if ok && job >= c.job {
		return nil
	}
	c.job = job
	return c
}

// unique returns the number of equivalence classes seen so far.
func (d *deduper) unique() int { return len(d.classes) }

// failures snapshots the catalog.
func (d *deduper) failures() []report.FailureCase {
	out := make([]report.FailureCase, 0, len(d.classes))
	for _, c := range d.classes {
		fc := c.desc
		fc.Count = c.count
		out = append(out, fc)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}
