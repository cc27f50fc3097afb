package runner

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strings"

	"propane/internal/campaign"
	"propane/internal/model"
	"propane/internal/report"
	"propane/internal/sim"
	"propane/internal/trace"
)

// Failure dedupe: a large campaign produces thousands of deviating
// runs, but most repeat the same propagation over and over. Runs are
// classed by (injected module, input signal, set of deviating module
// outputs, bucketed system-failure latency); the run with the lowest
// job index in each class is kept as the exemplar and the rest only
// increment a counter, so novel propagations stay visible in the
// artifact listing. Job order, unlike completion order, is the same
// for every worker count and every resume, so failures.md is too.
//
// Classes are keyed by value: the class fields are encoded into a
// reused byte buffer, with the deviating outputs as a bitmask over the
// module's output list, so counting a run into an existing class
// allocates nothing. The Fingerprint, Outputs and Example strings are
// built only when a run becomes its class's exemplar.

// latencyBucketMs quantises propagation latencies: two runs whose
// system failures appear within the same 100 ms window after the trap
// fired are considered the same failure mode.
const latencyBucketMs = 100

// deduper accumulates failure equivalence classes. It is driven from
// the campaign's serial observer path, so it needs no locking.
type deduper struct {
	sys     *model.System
	classes map[string]*failureClass
	key     []byte // the class key of the run being added
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

// appendKeyField appends s to a class key, length-prefixed so that
// no two field sequences encode alike.
func appendKeyField(key []byte, s string) []byte {
	return append(binary.AppendUvarint(key, uint64(len(s))), s...)
}

// add folds job's run into the catalog. Non-deviating completed runs
// are ignored; crashes, hangs and quarantined jobs are always
// catalogued, classed by injection location so a panicking module
// surfaces as one line, not thousands.
func (d *deduper) add(job int, rec campaign.RunRecord) {
	inj := rec.Injection
	switch rec.Outcome {
	case campaign.OutcomeCrash, campaign.OutcomeHang, campaign.OutcomeQuarantined:
		d.key = appendKeyField(d.key[:0], string(rec.Outcome))
		d.key = appendKeyField(appendKeyField(d.key, inj.Module), inj.Signal)
		if c := d.exemplar(job); c != nil {
			example := fmt.Sprintf("%v case %d", inj, rec.CaseIndex)
			if rec.Detail != "" {
				example += ": " + rec.Detail
			}
			c.desc = report.FailureCase{
				Fingerprint:     fmt.Sprintf("%s %s/%s", rec.Outcome, inj.Module, inj.Signal),
				Kind:            string(rec.Outcome),
				Module:          inj.Module,
				Signal:          inj.Signal,
				LatencyBucketMs: -1,
				Example:         example,
			}
		}
		return
	}
	if !rec.Fired {
		return
	}
	mod, err := d.sys.Module(inj.Module)
	if err != nil {
		return
	}
	// An empty kind field sets deviation classes apart from the
	// outcome-named ones above.
	d.key = appendKeyField(d.key[:0], "")
	d.key = appendKeyField(appendKeyField(d.key, inj.Module), inj.Signal)
	mask := len(d.key)
	for range (len(mod.Outputs) + 7) / 8 {
		d.key = append(d.key, 0)
	}
	escaped := false
	for i, o := range mod.Outputs {
		if diff, ok := rec.Diffs.Get(o.Signal); ok && diff.Differs() {
			d.key[mask+i/8] |= 1 << (i % 8)
			escaped = true
		}
	}
	if !escaped && !rec.SystemFailure {
		return // the error never escaped the module
	}

	bucket := sim.Millis(-1)
	if rec.SystemFailure {
		bucket = (rec.FailureAt - rec.FiredAt) / latencyBucketMs * latencyBucketMs
	}
	d.key = binary.AppendVarint(d.key, int64(bucket))
	if c := d.exemplar(job); c != nil {
		outputs := deviatingOutputs(mod, rec.Diffs)
		c.desc = report.FailureCase{
			Fingerprint: fmt.Sprintf("%s/%s->{%s}@%d",
				inj.Module, inj.Signal, strings.Join(outputs, ","), bucket),
			Kind:            "deviation",
			Module:          inj.Module,
			Signal:          inj.Signal,
			Outputs:         outputs,
			LatencyBucketMs: int64(bucket),
			Example:         fmt.Sprintf("%v case %d", inj, rec.CaseIndex),
		}
	}
}

// deviatingOutputs lists, sorted, the outputs of mod that deviate in
// diffs; nil when none does.
func deviatingOutputs(mod *model.Module, diffs trace.Diffs) []string {
	var outputs []string
	for _, o := range mod.Outputs {
		if diff, ok := diffs.Get(o.Signal); ok && diff.Differs() {
			outputs = append(outputs, o.Signal)
		}
	}
	sort.Strings(outputs)
	return outputs
}

// exemplar counts job's run in the class keyed by d.key. It returns
// the class when the run becomes its exemplar — the class is new, or
// the run precedes the exemplar in job order — for the caller to
// describe, and nil otherwise, so most runs format no description.
func (d *deduper) exemplar(job int) *failureClass {
	c, ok := d.classes[string(d.key)]
	if !ok {
		c = &failureClass{}
		d.classes[string(d.key)] = c
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
