package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"runtime"
	"sort"
	"time"

	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/expr/runner"
	"jskernel/internal/serve"
	"jskernel/internal/telemetry"
	"jskernel/internal/trace"
)

// ServeReport is the JSON schema of the -serve benchmark output. It
// records two runs against live jsk-serve daemons: a sustained run
// sized to the pool, and an overload run that deliberately outruns a
// pool-1 queue-1 server. The number that matters alongside throughput
// is CorrectPct: degradation must shed load, never accuracy, so both
// runs require every successful response to byte-match the unloaded
// reference — 100% or the benchmark fails.
type ServeReport struct {
	Experiment string `json:"experiment"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`

	Sustained ServePhase `json:"sustained"`
	Overload  ServePhase `json:"overload"`

	// Observability quantifies the live telemetry plane: the same
	// sustained load with the plane off, on with the batching flusher,
	// and on with the flusher disabled (every item applied inline on the
	// worker). All three phases demand 100% byte-identity against the
	// plane-off reference — the determinism contract under measurement —
	// and the batched/sync comparison is the flusher's earned win.
	Observability ObsComparison `json:"observability"`
}

// ObsComparison is the obs-off / obs-on-batched / obs-on-sync triple.
type ObsComparison struct {
	Off     ServePhase `json:"off"`
	Batched ServePhase `json:"batched"`
	Sync    ServePhase `json:"sync"`
	// ObsOverheadPct is the throughput cost of the batched plane over
	// plane-off: (off - batched) / off * 100.
	ObsOverheadPct float64 `json:"obs_overhead_pct"`
	// BatchingGainPct is the throughput recovered by batching over the
	// inline-apply baseline: (batched - sync) / sync * 100. End-to-end
	// throughput is dominated by the evaluations themselves (~ms each),
	// so at low core counts this reads as noise around zero; the
	// flusher's earned win lives in FlusherMicro.
	BatchingGainPct float64 `json:"batching_gain_pct"`
	// FlusherMicro isolates what batching actually buys: the cost an
	// eval worker pays to hand one record to the plane.
	FlusherMicro FlusherMicro `json:"flusher_micro"`
}

// FlusherMicro measures the plane in isolation: the same stream of
// realistic EvalRecords (a genuine kernel metrics registry from a
// traced run of the benchmark cell) submitted in batched and in sync
// mode. Batching moves the aggregate fold off the submitter — a
// channel hand-off versus folding histograms and per-API counters
// inline under the aggregate lock — so the worker-side submit cost is
// where the win is visible on any core count.
type FlusherMicro struct {
	Items int `json:"items"`
	// BatchedSubmitNs / SyncSubmitNs are the mean worker-side cost of
	// one SubmitEval in each mode, nanoseconds.
	BatchedSubmitNs float64 `json:"batched_submit_ns"`
	SyncSubmitNs    float64 `json:"sync_submit_ns"`
	// SubmitGainX is SyncSubmitNs / BatchedSubmitNs: how many times
	// cheaper the worker's hand-off is with the flusher on.
	SubmitGainX float64 `json:"submit_gain_x"`
	// ItemsPerBatch is the realized batching ratio of the batched run.
	ItemsPerBatch float64 `json:"items_per_batch"`
}

// ServePhase is one load phase of the serve benchmark.
type ServePhase struct {
	Pool       int `json:"pool"`
	QueueDepth int `json:"queue_depth"`
	Clients    int `json:"clients"`
	Requests   int `json:"requests"`
	Completed  int `json:"completed"`
	Shed       int `json:"shed"`
	// ShedRate is Shed / Requests: ~0 sustained, rising under overload.
	ShedRate float64 `json:"shed_rate"`
	// CorrectPct is the fraction of completed responses byte-identical
	// to the unloaded reference. Anything below 100 is a contract break.
	CorrectPct    float64 `json:"correct_pct"`
	ElapsedMs     float64 `json:"elapsed_ms"`
	ThroughputRPS float64 `json:"throughput_rps"`
	P50Ms         float64 `json:"p50_ms"`
	P95Ms         float64 `json:"p95_ms"`
	P99Ms         float64 `json:"p99_ms"`
	// Telemetry reports the plane's flusher counters when the phase ran
	// with the observability plane on: Batches/Items show the batching
	// ratio, InlineApplies counts sync-mode (or overflow) applications.
	Telemetry *PhaseTelemetry `json:"telemetry,omitempty"`
}

// PhaseTelemetry is the flusher accounting of one obs-on phase.
type PhaseTelemetry struct {
	FlushBatches  uint64 `json:"flush_batches"`
	FlushItems    uint64 `json:"flush_items"`
	InlineApplies uint64 `json:"inline_applies"`
	// ItemsPerBatch is the realized batching ratio (0 in sync mode).
	ItemsPerBatch float64 `json:"items_per_batch"`
}

// benchCell is the workload every benchmark request evaluates: one
// deterministic Table I cell, so correctness is plain byte equality.
func benchCell() serve.Request {
	return serve.Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 1}
}

// runServe drives the serve benchmark and writes the report.
func runServe(requests int, out string) error {
	// Unloaded reference: one warm server, one request.
	ref, err := referenceBody()
	if err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	pool := runtime.GOMAXPROCS(0)
	fmt.Fprintf(os.Stderr, "jsk-bench: serve sustained (%d requests, pool %d)...\n", requests, pool)
	sustained, err := runServePhase(serve.Config{Pool: pool, QueueDepth: 4 * pool}, 2*pool, requests, ref)
	if err != nil {
		return fmt.Errorf("sustained: %w", err)
	}
	fmt.Fprintf(os.Stderr, "jsk-bench: serve overload (%d requests, pool 1, queue 1)...\n", requests)
	overload, err := runServePhase(serve.Config{Pool: 1, QueueDepth: 1}, 32, requests, ref)
	if err != nil {
		return fmt.Errorf("overload: %w", err)
	}

	fmt.Fprintf(os.Stderr, "jsk-bench: serve observability triple (%d requests x3, pool %d)...\n", requests, pool)
	obs, err := runObsComparison(pool, requests, ref)
	if err != nil {
		return fmt.Errorf("observability: %w", err)
	}

	rep := ServeReport{
		Experiment:    "serve",
		CPUs:          runtime.NumCPU(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Sustained:     sustained,
		Overload:      overload,
		Observability: obs,
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("sustained: %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, shed %.0f%%, correct %.0f%%\n",
		sustained.ThroughputRPS, sustained.P50Ms, sustained.P95Ms, sustained.P99Ms,
		sustained.ShedRate*100, sustained.CorrectPct)
	fmt.Printf("overload:  %.0f req/s, p50 %.1fms p95 %.1fms p99 %.1fms, shed %.0f%%, correct %.0f%% -> %s\n",
		overload.ThroughputRPS, overload.P50Ms, overload.P95Ms, overload.P99Ms,
		overload.ShedRate*100, overload.CorrectPct, out)

	fmt.Printf("obs:       off %.0f req/s | batched %.0f req/s (overhead %.1f%%, %.0f items/batch) | sync %.0f req/s (batching gain %.1f%%)\n",
		obs.Off.ThroughputRPS, obs.Batched.ThroughputRPS, obs.ObsOverheadPct,
		obs.Batched.Telemetry.ItemsPerBatch, obs.Sync.ThroughputRPS, obs.BatchingGainPct)
	fmt.Printf("flusher:   submit %.0fns batched vs %.0fns sync (%.1fx cheaper hand-off, %.0f items/batch)\n",
		obs.FlusherMicro.BatchedSubmitNs, obs.FlusherMicro.SyncSubmitNs,
		obs.FlusherMicro.SubmitGainX, obs.FlusherMicro.ItemsPerBatch)

	if sustained.CorrectPct < 100 || overload.CorrectPct < 100 {
		return fmt.Errorf("served responses diverged from the reference — load shed accuracy")
	}
	for _, ph := range []struct {
		name  string
		phase ServePhase
	}{{"off", obs.Off}, {"batched", obs.Batched}, {"sync", obs.Sync}} {
		if ph.phase.CorrectPct < 100 {
			return fmt.Errorf("obs %s phase diverged from the plane-off reference — telemetry leaked into response bytes", ph.name)
		}
	}
	if obs.FlusherMicro.SubmitGainX <= 1 {
		return fmt.Errorf("batched submit is not cheaper than inline apply (%.2fx) — the flusher earns nothing",
			obs.FlusherMicro.SubmitGainX)
	}
	if overload.ShedRate <= sustained.ShedRate {
		return fmt.Errorf("overload run shed no more than sustained (%.2f <= %.2f) — admission control not engaging",
			overload.ShedRate, sustained.ShedRate)
	}
	return nil
}

// runObsComparison runs the same sustained load three times: plane
// off, plane on with the batching flusher, plane on with inline
// applies. Identical pool/queue/client shape, identical workload, so
// the only variable is the telemetry path.
func runObsComparison(pool, requests int, ref []byte) (ObsComparison, error) {
	shape := func(cfg serve.Config) serve.Config {
		cfg.Pool = pool
		cfg.QueueDepth = 4 * pool
		return cfg
	}
	off, err := runServePhase(shape(serve.Config{}), 2*pool, requests, ref)
	if err != nil {
		return ObsComparison{}, fmt.Errorf("off: %w", err)
	}
	batched, err := runServePhase(shape(serve.Config{Telemetry: true}), 2*pool, requests, ref)
	if err != nil {
		return ObsComparison{}, fmt.Errorf("batched: %w", err)
	}
	sync, err := runServePhase(shape(serve.Config{Telemetry: true, TelemetrySync: true}), 2*pool, requests, ref)
	if err != nil {
		return ObsComparison{}, fmt.Errorf("sync: %w", err)
	}
	cmp := ObsComparison{Off: off, Batched: batched, Sync: sync}
	if off.ThroughputRPS > 0 {
		cmp.ObsOverheadPct = (off.ThroughputRPS - batched.ThroughputRPS) / off.ThroughputRPS * 100
	}
	if sync.ThroughputRPS > 0 {
		cmp.BatchingGainPct = (batched.ThroughputRPS - sync.ThroughputRPS) / sync.ThroughputRPS * 100
	}
	micro, err := runFlusherMicro()
	if err != nil {
		return ObsComparison{}, fmt.Errorf("flusher micro: %w", err)
	}
	cmp.FlusherMicro = micro
	return cmp, nil
}

// benchMetrics runs the benchmark cell once under a tracing session and
// returns its kernel metrics registry — the realistic fold payload for
// the flusher micro-benchmark.
func benchMetrics() (*trace.Metrics, error) {
	req := benchCell()
	d, err := defense.ByID(req.Defense)
	if err != nil {
		return nil, err
	}
	a, ok := expr.TimingRow(req.Attack)
	if !ok {
		return nil, fmt.Errorf("unknown bench attack %q", req.Attack)
	}
	sess := trace.NewSession()
	sess.SetRetain(false)
	a.Evaluate(d.WithTracer(sess), req.Reps, req.Seed)
	sess.Close()
	return sess.Metrics(), nil
}

// runFlusherMicro times the worker-side cost of handing one EvalRecord
// to the plane, batched versus sync, over the same record stream. The
// queue is sized to the run so no submission overflows to the inline
// path — overflow behavior is the chaos suite's job; this measures the
// serving-path common case.
func runFlusherMicro() (FlusherMicro, error) {
	m, err := benchMetrics()
	if err != nil {
		return FlusherMicro{}, err
	}
	const items = 5000
	run := func(syncMode bool) (nsPerSubmit, itemsPerBatch float64) {
		p := telemetry.NewPlane(telemetry.PlaneConfig{
			QueueDepth: items,
			Sync:       syncMode,
			EventRing:  16,
		})
		rec := &telemetry.EvalRecord{RequestID: "bench", Scope: "loopscan", Metrics: m}
		start := time.Now()
		for i := 0; i < items; i++ {
			p.SubmitEval(rec)
		}
		elapsed := time.Since(start)
		if !syncMode {
			p.Barrier()
		}
		p.Close()
		batches, folded, _, _ := p.FlushStats()
		if batches > 0 {
			itemsPerBatch = float64(folded) / float64(batches)
		}
		return float64(elapsed.Nanoseconds()) / items, itemsPerBatch
	}
	// Warm both paths once so neither timed side pays first-touch costs.
	run(true)
	run(false)
	micro := FlusherMicro{Items: items}
	micro.SyncSubmitNs, _ = run(true)
	micro.BatchedSubmitNs, micro.ItemsPerBatch = run(false)
	if micro.BatchedSubmitNs > 0 {
		micro.SubmitGainX = micro.SyncSubmitNs / micro.BatchedSubmitNs
	}
	return micro, nil
}

// referenceBody computes the fault-free response bytes for benchCell.
func referenceBody() ([]byte, error) {
	s, client, err := startServer(serve.Config{Pool: 1})
	if err != nil {
		return nil, err
	}
	defer stopServer(s)
	return client.EvalBytes(context.Background(), benchCell())
}

// runServePhase fires requests concurrent benchmark clients at a fresh
// server and aggregates outcome counts and client-observed latency.
func runServePhase(cfg serve.Config, clients, requests int, ref []byte) (ServePhase, error) {
	s, client, err := startServer(cfg)
	if err != nil {
		return ServePhase{}, err
	}
	defer stopServer(s)
	client.MaxAttempts = 1

	type outcome struct {
		latency time.Duration
		ok      bool
		correct bool
		shed    bool
		err     error
	}
	start := time.Now()
	results := runner.Map(clients, requests, func(int) outcome {
		t0 := time.Now()
		body, err := client.EvalBytes(context.Background(), benchCell())
		lat := time.Since(t0)
		if err != nil {
			if re, ok := err.(serve.RetryableError); ok && re.Retryable() {
				return outcome{latency: lat, shed: true}
			}
			return outcome{latency: lat, err: err}
		}
		return outcome{latency: lat, ok: true, correct: bytes.Equal(body, ref)}
	})
	elapsed := time.Since(start)

	ph := ServePhase{
		Pool:       cfg.Pool,
		QueueDepth: cfg.QueueDepth,
		Clients:    clients,
		Requests:   requests,
	}
	var latencies []time.Duration
	correct := 0
	for _, r := range results {
		switch {
		case r.err != nil:
			return ph, fmt.Errorf("untyped benchmark failure: %v", r.err)
		case r.shed:
			ph.Shed++
		default:
			ph.Completed++
			latencies = append(latencies, r.latency)
			if r.correct {
				correct++
			}
		}
	}
	ph.ShedRate = float64(ph.Shed) / float64(requests)
	if ph.Completed > 0 {
		ph.CorrectPct = float64(correct) / float64(ph.Completed) * 100
	}
	ph.ElapsedMs = float64(elapsed.Microseconds()) / 1000
	if elapsed > 0 {
		ph.ThroughputRPS = float64(ph.Completed) / elapsed.Seconds()
	}
	ph.P50Ms = percentileMs(latencies, 0.50)
	ph.P95Ms = percentileMs(latencies, 0.95)
	ph.P99Ms = percentileMs(latencies, 0.99)
	if plane := s.Plane(); plane != nil {
		batches, items, inline, _ := plane.FlushStats()
		pt := &PhaseTelemetry{FlushBatches: batches, FlushItems: items, InlineApplies: inline}
		if batches > 0 {
			pt.ItemsPerBatch = float64(items) / float64(batches)
		}
		ph.Telemetry = pt
	}
	return ph, nil
}

// percentileMs returns the q-quantile of the (unsorted) latency set in
// milliseconds, 0 when empty.
func percentileMs(lats []time.Duration, q float64) float64 {
	if len(lats) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(lats))
	copy(sorted, lats)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return float64(sorted[idx].Microseconds()) / 1000
}

func startServer(cfg serve.Config) (*serve.Server, *serve.Client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	s := serve.New(cfg)
	s.Start(ln)
	return s, &serve.Client{BaseURL: "http://" + ln.Addr().String()}, nil
}

func stopServer(s *serve.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
