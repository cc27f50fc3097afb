package runner

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"propane/internal/campaign"
	"propane/internal/inject"
	"propane/internal/model"
	"propane/internal/report"
	"propane/internal/sim"
	"propane/internal/trace"
)

// stringDeduper is the failure dedupe keyed by its rendered
// fingerprint string, kept as the oracle for the value-keyed deduper:
// both must build the same catalog from the same runs.
type stringDeduper struct {
	sys     *model.System
	classes map[string]*failureClass
}

func (d *stringDeduper) add(job int, rec campaign.RunRecord) {
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
		if diff, ok := rec.Diffs.Get(o.Signal); ok && diff.Differs() {
			outputs = append(outputs, o.Signal)
		}
	}
	if len(outputs) == 0 && !rec.SystemFailure {
		return
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

func (d *stringDeduper) exemplar(fp string, job int) *failureClass {
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

func (d *stringDeduper) failures() []report.FailureCase {
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

// dedupeOracleSystem has a narrow module, a module with 70 outputs
// (more than one 64-bit word of output bits) and a module fed by both.
func dedupeOracleSystem(t *testing.T) *model.System {
	t.Helper()
	wide := make([]string, 70)
	for i := range wide {
		wide[i] = fmt.Sprintf("w%02d", i)
	}
	sys, err := model.NewBuilder("dedupe-oracle").
		AddModule("A", []string{"x", "y"}, []string{"a1", "a2", "a3"}).
		AddModule("WIDE", []string{"a1"}, wide).
		AddModule("B", []string{"a2", "a3"}, []string{"b1"}).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestDedupeMatchesStringFingerprints feeds the deduper and its
// string-keyed oracle one mixed stream — crashes, hangs and
// quarantined jobs, unfired runs, errors that stay inside their
// module, runs outside the topology, every latency bucket, and
// exemplars arriving out of job order — and requires the same catalog.
func TestDedupeMatchesStringFingerprints(t *testing.T) {
	sys := dedupeOracleSystem(t)
	ghost := &model.Module{Name: "GHOST", Inputs: []model.Port{{Index: 1, Signal: "g"}}}
	mods := append(append([]*model.Module(nil), sys.Modules()...), ghost)
	// A few output patterns per module, so classes repeat; WIDE's
	// include outputs past the first 64.
	patterns := map[string][][]int{
		"A":     {{0}, {1}, {0, 2}, {0, 1, 2}, {}},
		"WIDE":  {{0}, {63}, {64}, {69}, {1, 64, 69}, {0, 63, 64, 65}, {}},
		"B":     {{0}, {}},
		"GHOST": {{}},
	}
	rng := rand.New(rand.NewSource(1))
	const n = 4000
	jobs := rng.Perm(n)
	var stream []campaign.RunRecord
	for range jobs {
		mod := mods[rng.Intn(len(mods))]
		inj := inject.Injection{
			Module: mod.Name,
			Signal: mod.Inputs[rng.Intn(len(mod.Inputs))].Signal,
			At:     sim.Millis(500 + 1000*rng.Intn(2)),
			Model:  inject.BitFlip{Bit: uint(rng.Intn(16))},
		}
		rec := campaign.RunRecord{Injection: inj, CaseIndex: rng.Intn(4), FailureAt: -1}
		switch k := rng.Intn(12); {
		case k == 0:
			rec.Outcome, rec.Fired, rec.Detail = campaign.OutcomeCrash, true, "panic: boom"
		case k == 1:
			rec.Outcome = campaign.OutcomeHang
		case k == 2:
			rec.Outcome, rec.Attempts = campaign.OutcomeQuarantined, 3
			if rng.Intn(2) == 0 {
				rec.Detail = "worker lost"
			}
		case k == 3:
			rec.Outcome = campaign.OutcomeOK // unfired
		default:
			rec.Fired = true
			rec.FiredAt = inj.At + sim.Millis(rng.Intn(5))
			rec.Outcome = campaign.OutcomeDeviation
			diffs := map[string]trace.Diff{}
			// The injected input deviates inside the module; it is
			// not an output, so alone it is an error that stays there.
			diffs[inj.Signal] = trace.Diff{Signal: inj.Signal, First: rec.FiredAt, Last: rec.FiredAt, Count: 1}
			pats := patterns[mod.Name]
			for _, o := range pats[rng.Intn(len(pats))] {
				sig := mod.Outputs[o].Signal
				diffs[sig] = trace.Diff{Signal: sig, First: rec.FiredAt + 3, Last: rec.FiredAt + 40, Count: 7}
			}
			// A recorded but non-deviating output counts as none.
			if len(mod.Outputs) > 0 {
				sig := mod.Outputs[len(mod.Outputs)-1].Signal
				if _, ok := diffs[sig]; !ok && rng.Intn(3) == 0 {
					diffs[sig] = trace.Diff{Signal: sig, First: -1, Last: -1}
				}
			}
			for _, d := range diffs {
				rec.Diffs = append(rec.Diffs, d)
			}
			slices.SortFunc(rec.Diffs, func(a, b trace.Diff) int { return strings.Compare(a.Signal, b.Signal) })
			if rng.Intn(2) == 0 {
				rec.SystemFailure = true
				rec.FailureAt = rec.FiredAt + sim.Millis(rng.Intn(1000))
			}
		}
		stream = append(stream, rec)
	}

	got := newDeduper(sys)
	want := &stringDeduper{sys: sys, classes: make(map[string]*failureClass)}
	var half map[string]int
	for i, rec := range stream {
		if i == n/2 {
			half = make(map[string]int, len(want.classes))
			for fp, c := range want.classes {
				half[fp] = c.job
			}
		}
		got.add(jobs[i], rec)
		want.add(jobs[i], rec)
	}
	if got.unique() != len(want.classes) {
		t.Errorf("%d classes, want %d", got.unique(), len(want.classes))
	}
	gf, wf := got.failures(), want.failures()
	if !reflect.DeepEqual(gf, wf) {
		for i := 0; i < len(gf) && i < len(wf); i++ {
			if !reflect.DeepEqual(gf[i], wf[i]) {
				t.Fatalf("catalog entry %d:\n got  %+v\n want %+v", i, gf[i], wf[i])
			}
		}
		t.Fatalf("catalog has %d entries, want %d", len(gf), len(wf))
	}

	// The stream must have exercised what it claims to.
	kinds := map[string]bool{}
	buckets := map[int64]bool{}
	wideHigh, repeated := false, false
	for _, fc := range wf {
		kinds[fc.Kind] = true
		if fc.Kind == "deviation" {
			buckets[fc.LatencyBucketMs] = true
		}
		for _, o := range fc.Outputs {
			wideHigh = wideHigh || o >= "w64"
		}
		repeated = repeated || fc.Count > 1
	}
	for _, k := range []string{"deviation", "crash", "hang", "quarantined"} {
		if !kinds[k] {
			t.Errorf("no %s class in the stream", k)
		}
	}
	for _, b := range []int64{-1, 0, 100, 200, 300, 400, 500, 600, 700, 800, 900} {
		if !buckets[b] {
			t.Errorf("no deviation class with latency bucket %d", b)
		}
	}
	if !wideHigh || !repeated {
		t.Errorf("stream lacks an output past the 64th (%v) or a repeated class (%v)", wideHigh, repeated)
	}
	replaced := 0
	for fp, job := range half {
		if want.classes[fp].job < job {
			replaced++
		}
	}
	if replaced == 0 {
		t.Error("no exemplar was replaced by an earlier job arriving later")
	}
}

// TestObserverRecordAllocs pins the serial observer path's cost for a
// deviating run whose failure class exists and which does not become
// its exemplar: rendering the journal record (with the model spec
// looked up in the prepared table, the run's diff slice shared) and
// counting the run in its class allocate nothing.
func TestObserverRecordAllocs(t *testing.T) {
	sys := campaign.PaperConfig().System()
	rec := sampleRunRecord()
	rec.Diffs = rec.Diffs.Deviating() // a live run's diffs deviate
	specs := map[inject.ErrorModel]string{rec.Injection.Model: "bitflip:7"}
	ddp := newDeduper(sys)
	ddp.add(0, rec)
	var jrec Record
	got := testing.AllocsPerRun(100, func() {
		jrec = newRecord(5, specs[rec.Injection.Model], rec)
		ddp.add(5, rec)
	})
	if len(jrec.Diffs) != 1 || jrec.Model != "bitflip:7" {
		t.Fatalf("record %+v: want one journaled diff and model bitflip:7", jrec)
	}
	fs := ddp.failures()
	if len(fs) != 1 || fs[0].Count != 102 || !strings.HasSuffix(fs[0].Example, "case 3") {
		t.Fatalf("catalog %+v: want one class of 102 runs", fs)
	}
	if want := 0.0; got != want {
		t.Errorf("the observer path allocates %v times, want %v", got, want)
	}
}
