package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReferences recomputes the committed single-node references of
// matrix and fleet. It takes 13–60 s on a 2-vCPU VM; set
// PERFBENCH_FULL=1 to run it. (The repeatability tests below also compare both workloads
// with these references.)
func TestReferences(t *testing.T) {
	if os.Getenv("PERFBENCH_FULL") == "" {
		t.Skip("set PERFBENCH_FULL=1 to recompute the full-tier references")
	}
	rr, ji, err := singleNode(paperRequest(false), t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMatrix(rr.Result, ji, matrixRef); err != nil {
		t.Errorf("matrix: %v", err)
	}
	rr, ji, err = singleNode(paperRequest(true), t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	if ji.digest != fleetRef.digest {
		t.Errorf("fleet: digest %s, committed %s", ji.digest, fleetRef.digest)
	}
	if got := rr.Result.Adaptive.Scheduled; got != fleetRef.scheduled {
		t.Errorf("fleet: %d runs scheduled, committed %d", got, fleetRef.scheduled)
	}
}

// traced runs a workload traced, at the smallest run length.
func traced(t *testing.T, w workload, seed int64) *outcome {
	t.Helper()
	out, err := execute(w, env{seed: seed, seconds: 1, tr: newTracer()})
	if err != nil {
		t.Fatal(err)
	}
	if out.failed != 0 || out.attempted == 0 {
		t.Fatalf("%d of %d campaigns failed", out.failed, out.attempted)
	}
	return out
}

// assertRepeatable requires two executions of one seed to agree on
// allocations (within 0.1%), on disk usage (within 0.01%) and on the
// named counts.
func assertRepeatable(t *testing.T, a, b *outcome, counts []string) {
	t.Helper()
	if d := math.Abs(a.use.allocsK-b.use.allocsK) / a.use.allocsK; d > 0.001 {
		t.Errorf("allocs_k %.1f vs %.1f: %.3f%% apart", a.use.allocsK, b.use.allocsK, 100*d)
	}
	// Timing fields in metrics.json may differ by a few bytes.
	if d := math.Abs(float64(a.diskBytes-b.diskBytes)) / float64(a.diskBytes); d > 1e-4 {
		t.Errorf("disk bytes %d vs %d", a.diskBytes, b.diskBytes)
	}
	for _, name := range counts {
		if x, y := a.layers[name].Value, b.layers[name].Value; x != y {
			t.Errorf("%s: %v vs %v", name, x, y)
		}
	}
}

func campaignCounts() []string {
	var names []string
	for _, l := range layerNames {
		if strings.HasPrefix(l.name, "campaign.") && l.unit == "count" {
			names = append(names, l.name)
		}
	}
	return names
}

func TestMatrixRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full-tier matrix campaigns")
	}
	a := traced(t, runMatrix, 1)
	b := traced(t, runMatrix, 1)
	assertRepeatable(t, a, b, campaignCounts())
}

func TestFleetRepeatable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two full-tier fleet campaigns")
	}
	a := traced(t, runFleet, 1)
	b := traced(t, runFleet, 1)
	assertRepeatable(t, a, b, append(campaignCounts(), "distrib.units"))
	if a.twinS <= 0 {
		t.Error("traced fleet run measured no single-node twin")
	}
}

// TestServiceHeldOutSeed runs the service loop on a seed the benchmark
// was not tuned on: every campaign must match its single-node
// reference.
func TestServiceHeldOutSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 120 service campaigns")
	}
	out := traced(t, runService, 90210)
	if out.attempted < 100 {
		t.Errorf("%d campaigns, want at least 100", out.attempted)
	}
	if out.layers["store.gets"].Value == 0 || out.layers["campaign.runs_store"].Value == 0 {
		t.Error("no campaign was served from the memo store")
	}
}

func TestServiceMix(t *testing.T) {
	a, b := serviceMix(7, 2), serviceMix(7, 2)
	if len(a) != serviceTenants {
		t.Fatalf("%d tenants", len(a))
	}
	owner := make(map[string]int)
	for ti := range a {
		first := 0
		seen := make(map[string]bool)
		for i, rq := range a[ti] {
			if rq.key != b[ti][i].key {
				t.Fatalf("tenant %d item %d differs between draws of one seed", ti, i)
			}
			if o, ok := owner[rq.key]; ok && o != ti {
				t.Fatalf("tenants %d and %d share %s", o, ti, rq.key)
			}
			owner[rq.key] = ti
			if !seen[rq.key] {
				first++
				seen[rq.key] = true
			}
		}
		if frac := float64(first) / float64(len(a[ti])); frac < 0.25 || frac > 0.35 {
			t.Errorf("tenant %d: %.2f of submissions first seen, want about 0.3", ti, frac)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with
// what the command prints.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd(&outcome{campaignS: []float64{1}, setupS: []float64{1}, use: usage{wallS: 1}})
	if len(spec.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the command prints %d", len(spec.EndToEnd), len(e2e))
	}
	for _, m := range spec.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q printed", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(spec.PerLayer) != len(layerNames) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the command prints %d", len(spec.PerLayer), len(layerNames))
	}
	for i, m := range spec.PerLayer {
		if i < len(layerNames) && (layerNames[i].name != m.Name || layerNames[i].unit != m.Unit) {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] printed", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSpanFile(t *testing.T) {
	tr := newTracer()
	id := tr.root("c")
	tr.record(id, 0, "c", "campaign", tr.t0, tr.t0)
	tr.record(0, 0, "c", "child", tr.t0, tr.t0)
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	if len(tr.spans) != 2 || tr.spans[1].Parent != id {
		t.Errorf("spans %+v: child not attached to its campaign root", tr.spans)
	}
}
