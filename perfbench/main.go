// Command perfbench is propane's end-to-end benchmark. It runs one
// named workload in this process — the paper's fixed injection matrix
// on one node ("matrix"), the adaptive paper campaign on a loopback
// fleet ("fleet"), or a closed loop of two tenants against the
// multi-tenant campaign service ("service") — checks every campaign's
// output, and prints one JSON line of metrics as the last line of its
// standard output. README.md describes the workloads and metrics.
//
//	perfbench --workload matrix --seed 1 --seconds 30 --trace 0
//
// --trace 1 runs the workload twice, untraced and then traced, and
// prints the per-layer metrics instead of the end-to-end ones; the
// traced pass's spans go to the --spans file. --repeat N runs the
// workload in N fresh processes and prints each metric's quartiles.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// gomaxprocs pins the scheduler to the two CPUs the workloads' worker
// counts are sized for.
const gomaxprocs = 2

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is one workload execution's inputs.
type env struct {
	seed    int64
	seconds int
	dir     string  // scratch root, removed afterwards
	tr      *tracer // nil when untraced
}

// count sizes a workload from the run length: as many campaigns of
// the nominal length as fit, at least min. Fixing the count from the
// flag rather than from a clock keeps the work done identical across
// runs of one benchmark setting.
func (e *env) count(nominalS, min int) int {
	n := e.seconds / nominalS
	if n < min {
		n = min
	}
	return n
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	setupS            []float64
	campaignS         []float64 // per-campaign turnaround
	use               usage
	diskBytes         int64
	// layers holds the per-layer metrics of a traced execution.
	layers map[string]metric
	// twinS is the single-node time of the fleet's campaign (traced
	// fleet only), the base of distrib.tax_ratio.
	twinS float64
}

type workload func(e *env) (*outcome, error)

var workloads = map[string]workload{
	"matrix":  runMatrix,
	"fleet":   runFleet,
	"service": runService,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: matrix, fleet or service")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fs.Int("seconds", 30, "nominal length of the timed section, in seconds")
	traced := fs.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end ones")
	spans := fs.String("spans", "", "span file of a traced run (default .bench_build/spans/<workload>-<seed>.json)")
	repeat := fs.Int("repeat", 0, "run the workload this many times, each in a fresh process, and print each metric's median and quartiles")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok || *secs < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload matrix|fleet|service, --seconds >= 1 and --trace 0|1\n")
		return 2
	}
	if *repeat > 0 {
		return repeatRuns(*repeat, *name, *seed, *secs, *traced, stdout, stderr)
	}
	runtime.GOMAXPROCS(gomaxprocs)
	if *spans == "" {
		*spans = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.json", *name, *seed))
	}
	res, err := measure(w, *seed, *secs, *traced == 1, *spans)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// execute runs w once in a fresh scratch directory.
func execute(w workload, e env) (*outcome, error) {
	dir, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.dir = dir
	return w(&e)
}

// measure runs the workload and assembles the result line: the
// end-to-end metrics of one untraced execution, or — traced — the
// per-layer metrics of a traced execution that follows an untraced one.
func measure(w workload, seed int64, secs int, traced bool, spansPath string) (*result, error) {
	base := env{seed: seed, seconds: secs}
	out, err := execute(w, base)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
	}
	if !traced {
		res.Metrics = endToEnd(out)
		return res, nil
	}
	te := base
	te.tr = newTracer()
	tout, err := execute(w, te)
	if err != nil {
		return nil, err
	}
	if err := te.tr.write(spansPath); err != nil {
		return nil, err
	}
	res.Attempted += tout.attempted
	res.Failed += tout.failed
	res.Correct = res.Failed == 0
	res.Metrics = layerMetrics(out, tout)
	return res, nil
}

func endToEnd(o *outcome) map[string]metric {
	return map[string]metric{
		"campaign_s":      {median(o.campaignS), "s"},
		"campaign_p90_s":  {quantile(o.campaignS, 0.9), "s"},
		"campaigns_per_s": {float64(len(o.campaignS)) / o.use.wallS, "1/s"},
		"setup_s":         {median(o.setupS), "s"},
		"cpu_s":           {o.use.cpuS, "s"},
		"alloc_mb":        {o.use.allocMB, "MB"},
		"allocs_k":        {o.use.allocsK, "k"},
		"max_rss_mb":      {o.use.maxRSSMB, "MB"},
		"disk_mb":         {float64(o.diskBytes) / 1e6, "MB"},
	}
}

// layerNames lists every per-layer metric with its unit. Each workload
// fills the ones its layers exercise; the rest read 0 (for instance no
// store runs in matrix and no fleet in matrix).
var layerNames = []struct{ name, unit string }{
	{"campaign.prefix_s", "s"},
	{"campaign.runs_settled", "count"},
	{"campaign.runs_executed", "count"},
	{"campaign.executed_frac", "ratio"},
	{"campaign.runs_converged", "count"},
	{"campaign.runs_unfired", "count"},
	{"campaign.runs_noop", "count"},
	{"campaign.runs_memo", "count"},
	{"campaign.runs_store", "count"},
	{"campaign.adaptive_scheduled", "count"},
	{"campaign.adaptive_population", "count"},
	{"campaign.adaptive_rounds", "count"},
	{"sim.golden_pass_ms", "ms"},
	{"sim.tick_ns", "ns"},
	{"sim.checkpoint_restore_us", "us"},
	{"trace.compare_ms", "ms"},
	{"trace.record_ms", "ms"},
	{"runner.journal_records", "count"},
	{"runner.journal_bytes", "bytes"},
	{"runner.tail_s", "s"},
	{"store.gets", "count"},
	{"store.get_hit_frac", "ratio"},
	{"store.get_us_p50", "us"},
	{"store.puts", "count"},
	{"store.put_us_p50", "us"},
	{"store.bytes", "bytes"},
	{"distrib.lease_rpcs", "count"},
	{"distrib.lease_wait_ms_p50", "ms"},
	{"distrib.records_rpcs", "count"},
	{"distrib.records_bytes", "bytes"},
	{"distrib.records_ms_p50", "ms"},
	{"distrib.complete_rpcs", "count"},
	{"distrib.heartbeat_rpcs", "count"},
	{"distrib.units", "count"},
	{"distrib.jobs_per_unit_p50", "count"},
	{"distrib.tax_ratio", "ratio"},
	{"service.submit_ms_p50", "ms"},
	{"service.queue_wait_s_p50", "s"},
	{"service.exec_s_p50", "s"},
	{"service.exec_s_p90", "s"},
	{"service.refused", "count"},
	{"service.lease_wait_ms_p50", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
}

// layerMetrics merges the traced execution's layer figures with the
// ones common to every workload: the tracer's own counters, runtime GC
// cost, and the comparisons against the untraced execution.
func layerMetrics(base, traced *outcome) map[string]metric {
	tr := traced.layers
	out := make(map[string]metric, len(layerNames))
	for _, l := range layerNames {
		out[l.name] = metric{0, l.unit}
		if m, ok := tr[l.name]; ok {
			out[l.name] = m
		}
	}
	out["runtime.gc_cycles"] = metric{traced.use.gcCycles, "count"}
	out["runtime.gc_cpu_frac"] = metric{traced.use.gcCPUFrac, "ratio"}
	if b := median(base.campaignS); b > 0 {
		out["bench.trace_overhead_frac"] = metric{median(traced.campaignS)/b - 1, "ratio"}
	}
	if traced.twinS > 0 {
		out["distrib.tax_ratio"] = metric{median(base.campaignS) / traced.twinS, "ratio"}
	}
	return out
}

// fabricLayers reads the fleet-protocol and store figures a tracer
// collected through rpcMeter and timedMemo.
func fabricLayers(tr *tracer, into map[string]metric) {
	into["distrib.lease_rpcs"] = metric{tr.count("distrib.lease_rpcs"), "count"}
	into["distrib.lease_wait_ms_p50"] = metric{tr.quantile("distrib.lease_ms", 0.5), "ms"}
	into["distrib.records_rpcs"] = metric{tr.count("distrib.records_rpcs"), "count"}
	into["distrib.records_bytes"] = metric{tr.count("distrib.records_bytes"), "bytes"}
	into["distrib.records_ms_p50"] = metric{tr.quantile("distrib.records_ms", 0.5), "ms"}
	into["distrib.complete_rpcs"] = metric{tr.count("distrib.complete_rpcs"), "count"}
	into["distrib.heartbeat_rpcs"] = metric{tr.count("distrib.heartbeat_rpcs"), "count"}
	gets := tr.count("store.gets")
	into["store.gets"] = metric{gets, "count"}
	if gets > 0 {
		into["store.get_hit_frac"] = metric{tr.count("store.hits") / gets, "ratio"}
	}
	into["store.get_us_p50"] = metric{tr.quantile("store.get_us", 0.5), "us"}
	into["store.puts"] = metric{tr.count("store.puts"), "count"}
	into["store.put_us_p50"] = metric{tr.quantile("store.put_us", 0.5), "us"}
}
