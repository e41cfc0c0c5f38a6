package trace_test

// Golden-trace regression tests: the kernel's exact scheduling behaviour
// — not just final verdicts — is pinned byte-for-byte. Each scenario is
// rendered with WriteText and diffed against testdata/<name>.trace.txt.
// Every scenario also runs twice from scratch and must produce identical
// bytes before the golden comparison happens, so a failure separates
// "the build went nondeterministic" from "the scheduling changed".
//
// Regenerate the goldens after an intentional scheduling change with:
//
//	go test ./internal/trace -run Golden -update

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/kernel"
	"jskernel/internal/policy"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden trace files")

// goldenSeed keeps every scenario on one fixed seed: goldens pin one
// exact run.
const goldenSeed = 42

// renderScenario runs one traced scenario from scratch and returns the
// compact text rendering of its closed, validated trace.
func renderScenario(t *testing.T, name string, run func(t *testing.T, s *trace.Session)) []byte {
	t.Helper()
	s := trace.NewSession()
	run(t, s)
	s.Close()
	recs := s.Records()
	if len(recs) == 0 {
		t.Fatalf("%s: scenario emitted no trace records", name)
	}
	if _, err := trace.Validate(recs); err != nil {
		t.Fatalf("%s: trace fails validation: %v", name, err)
	}
	var b bytes.Buffer
	if err := trace.WriteText(&b, recs); err != nil {
		t.Fatalf("%s: render: %v", name, err)
	}
	return b.Bytes()
}

// checkGolden runs the scenario twice from scratch (determinism gate),
// then compares against the checked-in golden file.
func checkGolden(t *testing.T, name string, run func(t *testing.T, s *trace.Session)) {
	t.Helper()
	got := renderScenario(t, name, run)
	again := renderScenario(t, name, run)
	if !bytes.Equal(got, again) {
		t.Fatalf("%s: two fresh runs produced different traces (%d vs %d bytes) — the scenario is nondeterministic, goldens cannot apply", name, len(got), len(again))
	}

	path := filepath.Join("testdata", name+".trace.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: no golden file (run with -update to create): %v", name, err)
	}
	if bytes.Equal(got, want) {
		return
	}
	// Point at the first differing line so an intentional scheduling
	// change is easy to review before -update.
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s: trace diverges from golden at line %d:\n got: %s\nwant: %s\n(re-run with -update if the scheduling change is intentional)",
				name, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s: trace length diverges from golden (%d vs %d lines; re-run with -update if intentional)",
		name, len(gotLines), len(wantLines))
}

// TestGoldenTraceCVEDefended pins the JSKernel-defended run of the
// paper's Listing 2 exploit (CVE-2018-5092 use-after-free): the policy
// denies the racing abort, so the trace shows the deny verdict and the
// vulnerability never triggers.
func TestGoldenTraceCVEDefended(t *testing.T) {
	checkGolden(t, "cve-2018-5092-defended", func(t *testing.T, s *trace.Session) {
		out := attack.EvaluateCVE(attack.CVE20185092(), defense.JSKernel("chrome").WithTracer(s), goldenSeed)
		if !out.Defended {
			t.Fatalf("expected JSKernel to defend CVE-2018-5092")
		}
	})
}

// TestGoldenTraceCVEUndefended pins the same exploit under DeterFox,
// which schedules deterministically but carries no CVE policies: the
// kernel lifecycle is fully traced and the exploit still lands.
func TestGoldenTraceCVEUndefended(t *testing.T) {
	checkGolden(t, "cve-2018-5092-undefended", func(t *testing.T, s *trace.Session) {
		out := attack.EvaluateCVE(attack.CVE20185092(), defense.DeterFox().WithTracer(s), goldenSeed)
		if out.Defended {
			t.Fatalf("expected DeterFox to remain exploitable by CVE-2018-5092")
		}
	})
}

// TestGoldenTraceQuickstart pins a quickstart-style workload exercising
// the full event-lifecycle surface: one-shot timer, self-clearing
// interval, animation frame, a worker echo round-trip with termination,
// and a fetch.
func TestGoldenTraceQuickstart(t *testing.T) {
	checkGolden(t, "quickstart", func(t *testing.T, s *trace.Session) {
		env := defense.JSKernel("chrome").WithTracer(s).NewEnv(defense.EnvOptions{Seed: goldenSeed})
		b := env.Browser
		b.Net.RegisterScript("https://site.example/data.bin", 10_000)
		b.RegisterWorkerScript("echo.js", func(g *browser.Global) {
			g.SetOnMessage(func(g *browser.Global, ev browser.MessageEvent) {
				g.PostMessage(fmt.Sprintf("echo:%v", ev.Data))
			})
		})
		b.RunScript("quickstart", func(g *browser.Global) {
			g.SetTimeout(func(*browser.Global) {}, 5*sim.Millisecond)
			ticks := 0
			var iv int
			iv = g.SetInterval(func(g *browser.Global) {
				ticks++
				if ticks == 3 {
					g.ClearInterval(iv)
				}
			}, 10*sim.Millisecond)
			g.RequestAnimationFrame(func(*browser.Global, float64) {})
			g.Fetch("https://site.example/data.bin", browser.FetchOptions{},
				func(*browser.Response, error) {})
			w, err := g.NewWorker("echo.js")
			if err != nil {
				t.Fatalf("quickstart: NewWorker: %v", err)
			}
			w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {
				w.Terminate()
			})
			w.PostMessage("ping")
		})
		if err := b.RunFor(2 * sim.Second); err != nil {
			t.Fatalf("quickstart: run: %v", err)
		}
	})
}

// panickyPolicy is the full defense policy with a bug: evaluating one
// API panics, which the kernel must turn into a fail-closed deny.
type panickyPolicy struct {
	kernel.Policy
	api string
}

func (p panickyPolicy) Evaluate(ctx kernel.CallContext) kernel.Verdict {
	if ctx.API == p.api {
		panic("golden: policy bug")
	}
	return p.Policy.Evaluate(ctx)
}

// TestGoldenTraceSurvival pins every survival incident the kernel
// records except sheds (a shed needs a queue of 16k+ events): ten
// faulted timer callbacks (eight panic and are isolated, the eighth
// also quarantines the window, the last two are suppressed), a fetch
// whose confirmation never arrives within the 60 s watchdog, a policy
// that panics on indexedDB.open (fail-closed deny), and a worker's
// denied cross-origin XHR and sanitized importScripts.
func TestGoldenTraceSurvival(t *testing.T) {
	checkGolden(t, "survival", func(t *testing.T, s *trace.Session) {
		d := defense.JSKernel("chrome").WithTracer(s)
		d.Policy = panickyPolicy{Policy: policy.FullDefense(), api: "indexedDB.open"}
		env := d.NewEnv(defense.EnvOptions{Seed: goldenSeed})
		env.Kernel.SetCallbackFault(func(api string) bool { return api == "setTimeout" })
		b := env.Browser
		// ~50 GB: the transfer completes hours after the watchdog fires.
		b.Net.RegisterScript("https://site.example/glacial.bin", 50_000_000_000)
		b.Net.RegisterJSON("https://other.example/api.json", `{}`)
		b.RegisterWorkerScript("probe.js", func(g *browser.Global) {
			if _, err := g.XHR("https://other.example/api.json"); err == nil {
				t.Error("survival: cross-origin worker XHR was not denied")
			}
			if err := g.ImportScripts("https://other.example/lib.js"); err == nil {
				t.Error("survival: cross-origin importScripts was not sanitized")
			}
		})
		b.RunScript("survival", func(g *browser.Global) {
			if _, err := g.IndexedDBOpen("db"); err == nil {
				t.Error("survival: panicking policy did not fail closed")
			}
			if _, err := g.NewWorker("probe.js"); err != nil {
				t.Fatalf("survival: NewWorker: %v", err)
			}
			g.Fetch("https://site.example/glacial.bin", browser.FetchOptions{},
				func(*browser.Response, error) { t.Error("survival: expired fetch delivered") })
			for i := 0; i < 10; i++ {
				g.SetTimeout(func(*browser.Global) { t.Error("survival: faulted timer ran") },
					sim.Duration(i+1)*sim.Millisecond)
			}
		})
		if err := b.RunFor(90 * sim.Second); err != nil {
			t.Fatalf("survival: run: %v", err)
		}
	})
}
