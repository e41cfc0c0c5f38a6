package expr

import (
	"strings"
	"testing"

	"jskernel/internal/defense"
	"jskernel/internal/obs"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// TestTable1PaperShape regenerates the defense matrix at quick scale and
// asserts the qualitative conclusions of the paper's Table I.
func TestTable1PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	res := quickTable1(t)

	jsk := defense.JSKernel("chrome").ID
	// JSKernel defends every row.
	for id, byDef := range res.Timing {
		if out, ok := byDef[jsk]; !ok || !out.Defended {
			t.Errorf("Table I: JSKernel vulnerable to %s", id)
		}
	}
	for id, byDef := range res.CVE {
		if out, ok := byDef[jsk]; !ok || !out.Defended {
			t.Errorf("Table I: JSKernel vulnerable to %s", id)
		}
	}

	// The Legacy Three are vulnerable to every timing attack.
	for _, legacy := range []string{"chrome", "firefox", "edge"} {
		for id, byDef := range res.Timing {
			if byDef[legacy].Defended {
				t.Errorf("Table I: legacy %s unexpectedly defends %s", legacy, id)
			}
		}
	}
	// Legacy Chrome is vulnerable to all CVE rows.
	for id, byDef := range res.CVE {
		if byDef["chrome"].Defended {
			t.Errorf("Table I: legacy chrome unexpectedly defends %s", id)
		}
	}

	// DeterFox defends timing rows but loses most CVE rows.
	deterTimingDefended := 0
	for _, byDef := range res.Timing {
		if byDef["deterfox"].Defended {
			deterTimingDefended++
		}
	}
	if deterTimingDefended < 9 {
		t.Errorf("DeterFox defends only %d/10 timing rows", deterTimingDefended)
	}
	deterCVEDefended := 0
	for _, byDef := range res.CVE {
		if byDef["deterfox"].Defended {
			deterCVEDefended++
		}
	}
	if deterCVEDefended > 4 {
		t.Errorf("DeterFox defends %d/12 CVE rows; should lose most (no policies)", deterCVEDefended)
	}

	// Fuzzyfox defends the clock edge but not the large-secret rows.
	if !res.Timing["clock-edge"]["fuzzyfox"].Defended {
		t.Error("Fuzzyfox should defend the clock edge attack")
	}
	for _, id := range []string{"script-parsing", "svg-filtering", "cache-attack"} {
		if res.Timing[id]["fuzzyfox"].Defended {
			t.Errorf("Fuzzyfox should remain vulnerable to %s (averaging)", id)
		}
	}

	// Tor's coarse clocks do not touch implicit clocks.
	torDefended := 0
	for _, byDef := range res.Timing {
		if byDef["tor"].Defended {
			torDefended++
		}
	}
	if torDefended > 3 {
		t.Errorf("Tor defends %d/10 timing rows; implicit clocks should leak", torDefended)
	}

	// The rendered table carries every defense column and both sections.
	var b strings.Builder
	if err := res.Table.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"JSKernel", "Tor Browser", "CVE-2018-5092", "setTimeout as the implicit clock"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

// TestTable2PaperShape: JSKernel reports constant values (the prediction)
// for both secrets; legacy browsers differ.
func TestTable2PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 sweep")
	}
	cfg := QuickConfig()
	res, err := Table2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	for _, row := range res.Rows {
		switch row.Defense.Kind {
		case defense.KindJSKernel:
			if row.SVGLeaks || row.LoopLeaks {
				t.Errorf("JSKernel row leaks: svg=%v loop=%v", row.SVGLeaks, row.LoopLeaks)
			}
			if row.SVGLow != row.SVGHigh {
				t.Errorf("JSKernel SVG values differ: %.2f vs %.2f (should be the constant prediction)",
					row.SVGLow, row.SVGHigh)
			}
			// Loopscan under JSKernel: the deterministic quantum (~1ms,
			// with at most a one-quantum boundary artifact), and crucially
			// indistinguishable across sites.
			if row.LoopGoogle > 2.5 || row.LoopYoutube > 2.5 {
				t.Errorf("JSKernel loopscan gaps = %.2f/%.2f ms, want ~1ms quantum",
					row.LoopGoogle, row.LoopYoutube)
			}
		case defense.KindLegacy:
			if !row.SVGLeaks {
				t.Errorf("%s SVG should leak", row.Defense.ID)
			}
			if !row.LoopLeaks {
				t.Errorf("%s loopscan should leak", row.Defense.ID)
			}
			if row.SVGHigh <= row.SVGLow {
				t.Errorf("%s: high-res load (%.2f) not slower than low-res (%.2f)",
					row.Defense.ID, row.SVGHigh, row.SVGLow)
			}
		}
	}
}

// TestTable3PaperShape: JSKernel's loading overhead is within a few
// percent of the base browser on every subtest.
func TestTable3PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("raptor sweep")
	}
	cfg := QuickConfig()
	res, err := Table3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 4 {
		t.Fatalf("subtests = %d", len(res.Cells))
	}
	for site, byDef := range res.Cells {
		for base, kernel := range map[string]string{
			"chrome":  "jskernel-chrome",
			"firefox": "jskernel-firefox",
		} {
			b, ok1 := byDef[base]
			k, ok2 := byDef[kernel]
			if !ok1 || !ok2 {
				t.Fatalf("%s: missing cells", site)
			}
			ratio := k.Summary.Mean / b.Summary.Mean
			if ratio < 0.85 || ratio > 1.25 {
				t.Errorf("%s: %s/%s load ratio = %.3f, want near 1",
					site, kernel, base, ratio)
			}
		}
	}
}

// TestFig2PaperShape: reported time grows with size everywhere except the
// deterministic kernel, whose curve is flat.
func TestFig2PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("fig2 sweep")
	}
	cfg := QuickConfig()
	res, err := Fig2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for id, slope := range res.SlopeMsPerMB {
		switch id {
		case "jskernel-chrome":
			if slope > 0.5 {
				t.Errorf("JSKernel Fig2 slope = %.2f ms/MB, want flat", slope)
			}
		case "fuzzyfox":
			// Fuzzyfox's pauses coarsen the tick clock (raising the bar)
			// but the reported time still grows with size.
			if slope < 5 {
				t.Errorf("fuzzyfox Fig2 slope = %.2f ms/MB, want increasing", slope)
			}
		default:
			// ~0.84s transfer per MB on the ADSL model: slopes are
			// hundreds of ms per MB for every other leaky defense.
			if slope < 100 {
				t.Errorf("%s Fig2 slope = %.2f ms/MB, want clearly increasing", id, slope)
			}
		}
	}
}

// TestFig3PaperShape: JSKernel hugs its base browser; Tor and Fuzzyfox
// are the slow outliers; Chrome Zero is slower than JSKernel.
func TestFig3PaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("alexa sweep")
	}
	cfg := QuickConfig()
	res, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chrome := res.Median["chrome"]
	jsk := res.Median["jskernel-chrome"]
	cz := res.Median["chromezero"]
	tor := res.Median["tor"]
	fuzzy := res.Median["fuzzyfox"]
	firefox := res.Median["firefox"]
	deter := res.Median["deterfox"]

	if rel := (jsk - chrome) / chrome; rel < -0.05 || rel > 0.10 {
		t.Errorf("JSKernel median %.1f vs Chrome %.1f (%.1f%%); want minimal overhead", jsk, chrome, rel*100)
	}
	if cz <= jsk {
		t.Errorf("Chrome Zero median %.1f should exceed JSKernel %.1f", cz, jsk)
	}
	if tor <= chrome*1.5 {
		t.Errorf("Tor median %.1f should be a slow outlier vs Chrome %.1f", tor, chrome)
	}
	if fuzzy <= firefox {
		t.Errorf("Fuzzyfox median %.1f should exceed Firefox %.1f", fuzzy, firefox)
	}
	if rel := (deter - firefox) / firefox; rel > 0.10 {
		t.Errorf("DeterFox median %.1f far from Firefox %.1f", deter, firefox)
	}
	if len(res.Figure.Series) != 8 {
		t.Errorf("figure series = %d, want 8", len(res.Figure.Series))
	}
}

func TestDromaeoReport(t *testing.T) {
	rep, err := Dromaeo(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstTest != "dom-attr" {
		t.Errorf("worst test = %s, want dom-attr", rep.WorstTest)
	}
	if rep.MeanOverhead < 0 || rep.MeanOverhead > 0.08 {
		t.Errorf("mean overhead = %.2f%%", rep.MeanOverhead*100)
	}
	if rep.MedianOverhead > rep.MeanOverhead {
		t.Errorf("median (%.3f) should not exceed mean (%.3f): distribution is skewed by dom-attr",
			rep.MedianOverhead, rep.MeanOverhead)
	}
}

// obsOnlyCounter counts the records an obs-off run would not emit.
type obsOnlyCounter struct{ n int }

func (c *obsOnlyCounter) Observe(r trace.Record) {
	if r.Op == trace.OpNative && obsOnly(r.API) {
		c.n++
	}
}

// TestDromaeoObsNeutral pins that streaming observability never
// perturbs the §V-A Dromaeo experiment: the rendered table with no
// tracer and with a retain-off session carrying obs events, the
// profiler and the detectors must be byte-identical.
func TestDromaeoObsNeutral(t *testing.T) {
	render := func(cfg Config) string {
		t.Helper()
		rep, err := Dromaeo(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := rep.Table.Render(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	off := render(QuickConfig())

	s := trace.NewSession()
	s.SetRetain(false)
	s.Attach(obs.NewProfiler())
	s.Attach(obs.NewDetectors(obs.DefaultDetectorConfig()))
	obsOnly := &obsOnlyCounter{}
	s.Attach(obsOnly)
	cfg := QuickConfig()
	cfg.Trace, cfg.Obs = s, true
	on := render(cfg)
	s.Close()

	if obsOnly.n == 0 {
		t.Fatalf("obs-on run streamed %d records, none obs-only: obs events were not on", s.Len())
	}
	if on != off {
		t.Fatalf("obs changed the Dromaeo table:\n--- obs off\n%s\n--- obs on\n%s", off, on)
	}
}

func TestWorkerBenchReport(t *testing.T) {
	rep, err := WorkerBench(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Overhead < -0.05 || rep.Overhead > 0.10 {
		t.Errorf("worker overhead = %.2f%%, want ~1%%", rep.Overhead*100)
	}
}

func TestCompatReport(t *testing.T) {
	if testing.Short() {
		t.Skip("site sweep")
	}
	rep, err := Compat(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.FractionHigh < 0.85 {
		t.Errorf("only %.0f%% of sites reach 99%% similarity; paper reports ~90%%", rep.FractionHigh*100)
	}
}

func TestAppsReport(t *testing.T) {
	if testing.Short() {
		t.Skip("app sweep")
	}
	rep, err := Apps(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	jsk := rep.Diffs["jskernel-firefox"]
	deter := rep.Diffs["deterfox"]
	fuzzy := rep.Diffs["fuzzyfox"]
	if !(jsk <= deter && deter <= fuzzy) {
		t.Errorf("observable-difference ordering: jsk=%d deterfox=%d fuzzyfox=%d", jsk, deter, fuzzy)
	}
	if vuln.CVE20185092 == "" { // keep the vuln import for CVE id reuse below
		t.Fatal("unreachable")
	}
}
