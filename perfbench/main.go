// Command perfbench is the repository's benchmark. It drives the
// JSKernel reproduction through its public packages on one workload,
// checks every output it produces, and prints a facts line (host,
// toolchain, seed, ops) followed by one JSON result line:
//
//	bash perfbench/run.sh --workload table1 --seed 7 --seconds 25 --trace 0
//
// The workloads are defined in table1.go (table1, table1-obs) and
// serve.go (serve); BENCHMARK.json at the repository root lists them
// with the metric names, units and regression bounds. An op is one
// Table I cell, or one HTTP request for serve.
//
// Work per run is fixed: --seconds sets how many passes over the
// workload's op list a run makes (passes × nominal pass time ≈
// --seconds on a 2-vCPU host, and never fewer than minOps ops), so two
// runs with the same --seconds do the same work whatever the speed of
// the code under test. The end-to-end metrics, all lower-is-better:
//
//   - setup_s: from main to the measured phase — building the inputs
//     and a fixed warm-up of a few untimed cells or requests — as the
//     median of setupRounds rounds, the first counted from process start;
//   - wall_s, cpu_s: wall and process CPU (user+system) time of one
//     pass, as the median over the run's passes;
//   - p50_ms, p99_ms: op latency (a cell's run, or a /v1/eval request as
//     its client sees it) over every op of the run;
//   - allocs_per_op, alloc_bytes_per_op: heap allocations per op, from
//     runtime/metrics, over every pass;
//   - peak_rss_mb: the kernel's resident-set high-water mark.
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with no instrumentation beyond one clock read per op. With --trace 1
// the run measures the same passes untraced and then traced: the traced
// passes keep spans in memory around the benchmark's own calls into each
// layer's public functions, write them to --spans at the end, and the
// result carries the per-layer metrics (layerUnits), each span's self
// time, the share of the traced wall time the spans cover and the
// tracing overhead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"time"
)

// processStart is read as early as the program allows, so the first
// set-up round includes process initialisation.
var processStart = time.Now()

// setupRounds is how many times a run sets its workload up; setup_s is
// the median round.
const setupRounds = 7

// metric is one named measurement as printed in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the run's arguments as a workload sees them.
type options struct {
	seed    int64
	seconds int
	trace   bool
	spans   string // where the traced run writes its spans
}

// outcome is what a workload reports back to main.
type outcome struct {
	attempted, failed int
	endToEnd          map[string]metric
	perLayer          map[string]float64 // traced runs only
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(opts options) (*outcome, error)
}

// workloads lists every workload in BENCHMARK.json order; the
// comments beside each definition give the reasons and predictions.
var workloads = []workload{
	{"table1", runTable1},
	{"table1-obs", runTable1Obs},
	{"serve", runServe},
}

// endToEndUnits is every end-to-end metric with its unit, in the order
// BENCHMARK.json lists them. All are lower-is-better.
var endToEndUnits = []unit{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_bytes_per_op", "B"},
	{"peak_rss_mb", "MB"},
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: table1, table1-obs or serve")
		seed    = fs.Int64("seed", defaultSeed, "input seed; the default seed also checks outputs against stored digests")
		seconds = fs.Int("seconds", 25, "run length; sets the fixed number of passes")
		traced  = fs.Int("trace", 0, "1 measures per-layer metrics in a traced run")
		spans   = fs.String("spans", "", "span output file of a traced run (default .bench_build/spans/<workload>-<seed>.jsonl)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	opts := options{seed: *seed, seconds: *seconds, trace: *traced == 1, spans: *spans}
	if opts.spans == "" {
		opts.spans = fmt.Sprintf(".bench_build/spans/%s-%d.jsonl", w.name, opts.seed)
	}

	out, err := w.run(opts)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   out.endToEnd,
	}
	if opts.trace {
		res.Metrics = make(map[string]metric)
		for _, m := range perLayer() {
			res.Metrics[m.name] = metric{Value: out.perLayer[m.name], Unit: m.unit}
		}
	}
	facts := map[string]any{
		"workload":   w.name,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"ops":        out.attempted,
		"failed_ops": out.failed,
	}
	fj, err := json.Marshal(facts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "facts %s\n", fj)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// cpuModel names the host CPU for the facts line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// timeSetup calls setup setupRounds times and returns the last value
// with each round's duration; the first round counts from process
// start. Every earlier value is handed to release, when it is not nil,
// outside the timed rounds.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, []float64, error) {
	var v T
	var secs []float64
	for r := 0; r < setupRounds; r++ {
		if r > 0 && release != nil {
			release(v)
		}
		start := time.Now()
		if r == 0 {
			start = processStart
		}
		var err error
		if v, err = setup(); err != nil {
			return v, nil, err
		}
		secs = append(secs, time.Since(start).Seconds())
	}
	return v, secs, nil
}

// minOps is the fewest ops a run measures, so that p99_ms has ten
// samples beyond it.
const minOps = 1000

// passes is the fixed number of passes of opsPerPass ops a run of the
// given length makes.
func passes(seconds int, nominal float64, opsPerPass int) int {
	return max((minOps+opsPerPass-1)/opsPerPass, int(math.Round(float64(seconds)/nominal)))
}

// phase is one measured stretch of a run: passes over the same work.
type phase struct {
	d                 delta     // the whole phase
	passWall, passCPU []float64 // seconds, per pass
	ops               int
	latency           []float64 // per-op latency, ms
}

// measure runs pass(k) for k < n, snapshotting the process counters
// around each pass; pass returns its op count and per-op latencies.
func measure(n int, pass func(k int) (ops int, latency []float64)) phase {
	runtime.GC()
	first := readCounters()
	prev := first
	var ph phase
	for k := 0; k < n; k++ {
		ops, lat := pass(k)
		cur := readCounters()
		d := since(prev, cur)
		ph.passWall = append(ph.passWall, d.wallS)
		ph.passCPU = append(ph.passCPU, d.cpuS)
		ph.ops += ops
		ph.latency = append(ph.latency, lat...)
		prev = cur
	}
	ph.d = since(first, prev)
	return ph
}

// endToEnd turns a measured phase and the set-up rounds into the
// end-to-end metrics. p99_ms needs tailBeyond samples beyond it.
func endToEnd(setup []float64, ph phase) (map[string]metric, error) {
	p50, q, _ := percentiles(ph.latency)
	if q < 0.99 {
		return nil, fmt.Errorf("%d latency samples cannot support p99", len(ph.latency))
	}
	vals := map[string]float64{
		"setup_s":            median(setup),
		"wall_s":             median(ph.passWall),
		"cpu_s":              median(ph.passCPU),
		"p50_ms":             p50,
		"p99_ms":             quantile(ph.latency, 0.99),
		"allocs_per_op":      float64(ph.d.allocs) / float64(ph.ops),
		"alloc_bytes_per_op": float64(ph.d.allocBytes) / float64(ph.ops),
		"peak_rss_mb":        peakRSSMB(),
	}
	out := make(map[string]metric, len(endToEndUnits))
	for _, m := range endToEndUnits {
		out[m.name] = metric{Value: vals[m.name], Unit: m.unit}
	}
	return out, nil
}

// goRuntimeLayer is the Go-runtime layer of an untraced phase.
func goRuntimeLayer(layers map[string]float64, ph phase) {
	layers["go.gc_cycles"] = float64(ph.d.gcCycles)
	layers["go.gc_cpu_s"] = ph.d.gcCPUS
	layers["go.gc_pause_p99_ms"] = ph.d.gcPauseP99Ms
}

// traceRunLayer reports how much of the traced phase the spans cover
// and what tracing cost: the median traced pass against the median of
// the same passes untraced (the traced phase runs the first passes).
func traceRunLayer(layers map[string]float64, rec *recorder, traced phase, fromNs, toNs int64, untraced phase) {
	layers["trace_run.coverage_pct"] = 100 * rec.coverage(fromNs, toNs)
	layers["trace_run.overhead_pct"] = 100 * (median(traced.passWall)/median(untraced.passWall[:len(traced.passWall)]) - 1)
	self := rec.selfTimes()
	for _, name := range spanNames {
		layers["self."+name+"_s"] = self[name]
	}
}

// unit is a metric name with its unit.
type unit struct{ name, unit string }

// layerUnits are the per-layer metrics, each named after the module it
// measures. Counts "per op" are per Table I cell or per /v1/eval
// request; totals cover the traced run's measured passes. Every traced
// run prints every one: a layer its workload does not reach reads 0.
// Some cannot be measured from outside the serve process and read 0 on
// serve: sim.* and defense.* (the pooled environments are built and
// reset inside the server), and the obs and hb per-record sink costs
// (the sinks are attached inside the server) — table1-obs prices those
// sinks on the same stream.
var layerUnits = []unit{
	{"sim.steps", "count/op"},
	{"sim.ns_per_step", "ns"},
	{"defense.env_builds", "count/op"},
	{"defense.env_build_ms", "ms"},
	{"attack.cell_ms.p50", "ms"},
	{"attack.cell_ms.p99", "ms"},
	{"attack.cell_ms.total", "ms"},
	{"kernel.enqueued", "count/op"},
	{"kernel.dispatched", "count/op"},
	{"kernel.interpose_crossings", "count/op"},
	{"trace.records", "count/op"},
	{"trace.emit_ns_per_record", "ns"},
	{"trace.absorb_ms", "ms"},
	{"trace.validator_ns_per_record", "ns"},
	{"obs.profiler_ns_per_record", "ns"},
	{"obs.detectors_ns_per_record", "ns"},
	{"obs.collector_ns_per_record", "ns"},
	{"obs.report_ms", "ms"},
	{"hb.detector_ns_per_record", "ns"},
	{"hb.findings", "count/op"},
	{"serve.admission_ms", "ms"},
	{"serve.queue_ms", "ms"},
	{"serve.eval_ms", "ms"},
	{"serve.render_ms", "ms"},
	{"serve.http_ms", "ms"},
	{"telemetry.scrape_ms", "ms"},
	{"telemetry.exposition_kb", "KB"},
	{"telemetry.ledger_entries", "count"},
	{"telemetry.items_per_batch", "count"},
	{"telemetry.plane_overhead_pct", "%"},
	{"report.render_ms", "ms"},
	{"go.gc_cycles", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_pause_p99_ms", "ms"},
	{"trace_run.coverage_pct", "%"},
	{"trace_run.overhead_pct", "%"},
}

// perLayer is every per-layer metric: layerUnits, then the self time of
// each span name.
func perLayer() []unit {
	out := append([]unit(nil), layerUnits...)
	for _, name := range spanNames {
		out = append(out, unit{"self." + name + "_s", "s"})
	}
	return out
}

// spanNames are the spans traced runs record, across all workloads;
// a workload that does not call a layer reports zero self time for it.
var spanNames = []string{
	"cell",
	"defense.new_env",
	"attack.measure",
	"attack.exploit",
	"vuln.exploited",
	"attack.measure_rep",
	"attack.evaluate_cve",
	"attack.merge",
	"attack.assemble",
	"trace.close",
	"trace.absorb",
	"obs.report",
	"report.render",
	"client.eval",
	"client.metricsz",
	"client.ledgerz",
}
