package jskernel_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable1*  — the defense matrix (Table I), serial vs pooled
//	BenchmarkTable2*  — SVG filtering & Loopscan measured values (Table II)
//	BenchmarkTable3   — Raptor tp6-1 loading times (Table III)
//	BenchmarkFig2     — script parsing vs file size curves (Figure 2)
//	BenchmarkFig3     — Alexa loading-time CDFs (Figure 3)
//	BenchmarkDromaeo* — §V-A1 micro-benchmark overhead
//	BenchmarkWorkerCreation — §V-A1 16-worker benchmark
//	BenchmarkCompat*  — §V-B compatibility studies
//
// plus micro-benchmarks of the substrate, the kernel hot paths, the
// record path (BenchmarkEmit, BenchmarkAbsorb, BenchmarkSinks) and the
// serve plane's instruments over Table I (BenchmarkPlaneCells).

import (
	"fmt"
	"testing"
	"time"

	"jskernel"
	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/hb"
	"jskernel/internal/kernel"
	"jskernel/internal/obs"
	"jskernel/internal/policy"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/workload"
)

// benchConfig keeps each macro-benchmark iteration in the seconds range.
func benchConfig() expr.Config {
	cfg := expr.QuickConfig()
	cfg.Reps = 3
	cfg.AlexaSites = 15
	cfg.CompatSites = 8
	cfg.Fig2SizesMB = []int{2, 6, 10}
	cfg.Fig2Reps = 2
	return cfg
}

// --- Tables and figures ---

func BenchmarkTable1TimingRows(b *testing.B) {
	cfg := benchConfig()
	attacks := attack.TimingAttacks()
	defenses := defense.TableIDefenses()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range attacks {
			for _, d := range defenses {
				out := expr.RunCell(expr.Cell{Timing: a, Defense: d, Reps: cfg.Reps, Seed: cfg.Seed}, expr.Instruments{}).Outcome
				if out.AttackID == "" {
					b.Fatal("empty outcome")
				}
			}
		}
	}
}

func BenchmarkTable1CVERows(b *testing.B) {
	cfg := benchConfig()
	attacks := attack.CVEAttacks()
	defenses := defense.TableIDefenses()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, a := range attacks {
			for _, d := range defenses {
				_ = attack.EvaluateCVE(a, d, cfg.Seed)
			}
		}
	}
}

// BenchmarkTable1Pool times the full quick-scale Table I on the serial
// loop (width=1) and on an 8-wide worker pool (width=8). At -cpu 1 the
// width=8/width=1 ratio is the pool's overhead, at -cpu 2 its speedup:
//
//	go test -run '^$' -bench Table1Pool -cpu 1,2 .
//
// TestTable1ParallelByteIdentical (internal/expr) pins that both widths
// render the same bytes.
func BenchmarkTable1Pool(b *testing.B) {
	for _, width := range []int{1, 8} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			cfg := expr.QuickConfig()
			cfg.Parallel = width
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := expr.Table1(cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2SVGFiltering(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range defense.TableIIDefenses() {
			for _, dim := range []int{300, 1200} {
				env := d.NewEnv(defense.EnvOptions{Seed: cfg.Seed})
				if _, err := attack.MeasureSVGLoadMs(env, dim); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable2Loopscan(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range defense.TableIIDefenses() {
			for _, site := range []string{"google", "youtube"} {
				env := d.NewEnv(defense.EnvOptions{Seed: cfg.Seed})
				if _, err := attack.MeasureLoopscanGapMs(env, site); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

func BenchmarkTable3Raptor(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Table3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2ScriptParsing(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := expr.Fig2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.SlopeMsPerMB) == 0 {
			b.Fatal("no slopes")
		}
	}
}

func BenchmarkFig3AlexaCDF(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Fig3(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDromaeoLegacy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunDromaeo(defense.Chrome(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDromaeoJSKernel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunDromaeo(defense.JSKernel("chrome"), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDromaeoJSKernelTraced is BenchmarkDromaeoJSKernel with a live
// trace session attached — compare the two to see the tracing tax when
// on. The nil-sink (tracing off) case is BenchmarkDromaeoJSKernel
// itself, and TestTraceNilSinkOverhead bounds its overhead against a
// tracer-free build of the same workload.
func BenchmarkDromaeoJSKernelTraced(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := trace.NewSession()
		if _, err := workload.RunDromaeo(defense.JSKernel("chrome").WithTracer(s), 1); err != nil {
			b.Fatal(err)
		}
		if s.Len() == 0 {
			b.Fatal("traced run emitted no records")
		}
	}
}

// TestTraceNilSinkOverhead checks the tracing-off fast path. A kernel
// holding a nil *trace.Session must do nothing at each emission site
// beyond the nil check, so the off run can never be slower than the
// traced run — tracing on performs a strict superset of the work. The
// bound is deliberately generous (3x plus slack) so scheduler jitter
// never flakes it; what it catches is a future change that makes the
// off state do real work per emission (allocate, format, lock). Wall
// time is fine here: this file is outside the detwalltime lint scope.
func TestTraceNilSinkOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	runOnce := func(d defense.Defense) time.Duration {
		start := time.Now()
		if _, err := workload.RunDromaeo(d, 1); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	// Warm up allocators and caches, then take the best of 3 per side.
	runOnce(defense.JSKernel("chrome"))
	best := func(d defense.Defense) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			if v := runOnce(d); v < b {
				b = v
			}
		}
		return b
	}
	off := best(defense.JSKernel("chrome")) // nil tracer: the off fast path
	on := best(defense.JSKernel("chrome").WithTracer(trace.NewSession()))
	t.Logf("dromaeo: tracing off %v, tracing on %v", off, on)
	if off > 3*on+10*time.Millisecond {
		t.Fatalf("nil-sink path (%v) grossly slower than traced path (%v): the off state is doing real work", off, on)
	}
}

// BenchmarkDromaeoJSKernelObs is the traced benchmark with the
// browser's observability events on and the streaming profiler and
// detectors attached — the full telemetry tax. TestDromaeoObsNeutral
// (internal/expr) pins that it leaves the Dromaeo results unchanged.
func BenchmarkDromaeoJSKernelObs(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := trace.NewSession()
		s.SetRetain(false)
		s.Attach(obs.NewProfiler())
		s.Attach(obs.NewDetectors(obs.DefaultDetectorConfig()))
		d := defense.JSKernel("chrome").WithTracer(s).WithObs(true)
		if _, err := workload.RunDromaeo(d, 1); err != nil {
			b.Fatal(err)
		}
		if s.Len() == 0 {
			b.Fatal("obs run emitted no records")
		}
	}
}

// --- The record path, layer by layer ---
//
// Each benchmark below runs over the record stream of one recorded
// obs-on loopscan/jskernel-chrome cell (reps 1, seed 42) and reports
// ns/record, so the per-layer costs of an obs-on run can be read without
// the end-to-end benchmark: Session.Emit into a retaining cell session,
// Session.Absorb of the closed cell into a bare parent, and each sink's
// Observe.

// recordedCell traces the loopscan/jskernel-chrome cell into a closed,
// retaining session.
func recordedCell(b *testing.B) *trace.Session {
	b.Helper()
	a, ok := expr.TimingRow("loopscan")
	_, d, ok2 := expr.Table1Column("jskernel-chrome")
	if !ok || !ok2 {
		b.Fatal("loopscan/jskernel-chrome is not a Table I cell")
	}
	res := expr.RunCell(expr.Cell{Timing: a, Defense: d, Reps: 1, Seed: 42}, expr.Instruments{Records: true, Obs: true})
	return res.Trace
}

// reportNsPerRecord reports the loop's time per record.
func reportNsPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// BenchmarkEmit prices Session.Emit into a retaining session.
func BenchmarkEmit(b *testing.B) {
	recs := recordedCell(b).Records()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := trace.NewSession()
		for i := range recs {
			s.Emit(recs[i])
		}
	}
	reportNsPerRecord(b, len(recs))
}

// BenchmarkAbsorb prices Session.Absorb of the closed cell into a
// retain-off parent with no sinks attached.
func BenchmarkAbsorb(b *testing.B) {
	part := recordedCell(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := trace.NewSession()
		s.SetRetain(false)
		if err := s.Absorb(part); err != nil {
			b.Fatal(err)
		}
	}
	reportNsPerRecord(b, part.Len())
}

// BenchmarkSinks prices each sink's Observe: the -obs-report sinks
// (profiler, detectors, validator), the timing cells' collector and the
// race detector.
func BenchmarkSinks(b *testing.B) {
	recs := recordedCell(b).Records()
	for _, bc := range []struct {
		name string
		sink func() trace.Sink
	}{
		{"profiler", func() trace.Sink { return obs.NewProfiler() }},
		{"detectors", func() trace.Sink { return obs.NewDetectors(obs.DefaultDetectorConfig()) }},
		{"validator", func() trace.Sink { return trace.NewStreamValidator(false) }},
		{"collector", func() trace.Sink { return obs.NewCollector() }},
		{"hb", func() trace.Sink { return hb.NewDetector() }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sink := bc.sink()
				for i := range recs {
					sink.Observe(recs[i])
				}
			}
			reportNsPerRecord(b, len(recs))
		})
	}
}

// BenchmarkPlaneCells prices the work jsk-serve's telemetry plane adds
// to every evaluation, without perfbench: one pass runs the 176 Table I
// cells at reps 1 through expr.RunCell with the instruments
// serve.evaluate attaches when the plane is on. Every cell gets the
// forensic and race instruments the plane forces; one cell in five also
// asks for a validated trace summary and another one in five for
// forensics, as perfbench's serve mix sets trace and forensics.
func BenchmarkPlaneCells(b *testing.B) {
	var cells []expr.Cell
	for _, a := range attack.TimingAttacks() {
		for _, d := range defense.TableIDefenses() {
			cells = append(cells, expr.Cell{Timing: a, Defense: d, Reps: 1})
		}
	}
	for _, a := range attack.CVEAttacks() {
		for _, d := range defense.TableIDefenses() {
			cells = append(cells, expr.Cell{CVE: a, Defense: d})
		}
	}
	for i := range cells {
		cells[i].Seed = sim.DeriveSeed(42, int64(i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j, c := range cells {
			res := expr.RunCell(c, expr.Instruments{
				Validate:  j%5 == 0,
				Obs:       j%5 == 2,
				Forensics: true,
				Races:     true,
			})
			if res.Verdict == nil || res.ReportErr != nil {
				b.Fatalf("cell %d: verdict %v, validation error %v", j, res.Verdict, res.ReportErr)
			}
		}
	}
}

// TestObsOffOverhead checks the observability-off fast path the same
// way TestTraceNilSinkOverhead checks tracing-off: a traced environment
// with obs disabled must do nothing at each browser emission site
// beyond the existing bool check, so it can never be slower than the
// obs-on run, which performs a strict superset of the work (emitting
// the extra native events plus running the streaming consumers). The
// generous 3x-plus-slack bound only catches the off state doing real
// per-event work.
func TestObsOffOverhead(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison in -short mode")
	}
	runOnce := func(d defense.Defense) time.Duration {
		start := time.Now()
		if _, err := workload.RunDromaeo(d, 1); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	traced := func(withObs bool) defense.Defense {
		s := trace.NewSession()
		s.SetRetain(false)
		d := defense.JSKernel("chrome").WithTracer(s)
		if withObs {
			s.Attach(obs.NewProfiler())
			s.Attach(obs.NewDetectors(obs.DefaultDetectorConfig()))
			d = d.WithObs(true)
		}
		return d
	}
	runOnce(traced(true))
	best := func(withObs bool) time.Duration {
		b := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			if v := runOnce(traced(withObs)); v < b {
				b = v
			}
		}
		return b
	}
	off := best(false) // obs disabled: the bool-check fast path
	on := best(true)
	t.Logf("dromaeo traced: obs off %v, obs on %v", off, on)
	if off > 3*on+10*time.Millisecond {
		t.Fatalf("obs-off path (%v) grossly slower than obs-on path (%v): the off state is doing real work", off, on)
	}
}

func BenchmarkWorkerCreation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := workload.RunWorkerBench(defense.JSKernel("chrome"), 16, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompatDOMSimilarity(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Compat(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompatApps(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := expr.Apps(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationQuantum(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := expr.QuantumAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPolicy(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := expr.PolicyAblation(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecoveryAttacks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, d := range []defense.Defense{defense.Chrome(), defense.JSKernel("chrome")} {
			if _, _, err := attack.RecoveryAccuracy(d, 16, 1); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Substrate and kernel micro-benchmarks ---

func BenchmarkSimulatorScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := sim.New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(sim.Time(j), "ev", func() {})
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelEventQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q := kernel.NewEventQueue()
		for j := 0; j < 1000; j++ {
			q.NewEvent("e", sim.Time(j%97), nil)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

func BenchmarkKernelTimerDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := jskernel.Protected("chrome", 1)
		env.Browser.RunScript("main", func(g *jskernel.Global) {
			n := 0
			var chain func(gg *jskernel.Global)
			chain = func(gg *jskernel.Global) {
				if n++; n < 200 {
					gg.SetTimeout(chain, jskernel.Millisecond)
				}
			}
			g.SetTimeout(chain, jskernel.Millisecond)
		})
		if err := env.Browser.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNativeTimerDispatch(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := jskernel.Legacy("chrome", 1)
		env.Browser.RunScript("main", func(g *jskernel.Global) {
			n := 0
			var chain func(gg *jskernel.Global)
			chain = func(gg *jskernel.Global) {
				if n++; n < 200 {
					gg.SetTimeout(chain, jskernel.Millisecond)
				}
			}
			g.SetTimeout(chain, jskernel.Millisecond)
		})
		if err := env.Browser.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWorkerMessageRoundTrip(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := jskernel.Protected("chrome", 1)
		br := env.Browser
		br.RegisterWorkerScript("echo.js", func(g *jskernel.Global) {
			g.SetOnMessage(func(gg *jskernel.Global, m jskernel.MessageEvent) {
				gg.PostMessage(m.Data)
			})
		})
		br.RunScript("main", func(g *jskernel.Global) {
			w, err := g.NewWorker("echo.js")
			if err != nil {
				b.Fatal(err)
			}
			n := 0
			w.SetOnMessage(func(*jskernel.Global, jskernel.MessageEvent) {
				if n++; n < 50 {
					w.PostMessage(n)
				}
			})
			w.PostMessage(0)
		})
		if err := br.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSiteLoad(b *testing.B) {
	site := workload.GenerateSites(1, 3)[0]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		env := defense.JSKernel("chrome").NewEnv(defense.EnvOptions{Seed: int64(i + 1)})
		if _, err := workload.LoadSite(env, site); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPolicyEvaluate(b *testing.B) {
	full := policy.FullDefense()
	ctx := kernel.CallContext{API: "worker.terminate", PendingFetches: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if v := full.Evaluate(ctx); v.Action != kernel.ActionDefer {
			b.Fatal("unexpected verdict")
		}
	}
}
