// Command jsk-sim pokes the simulated browser substrate directly: it runs
// a small demonstration scenario under a chosen defense and prints what
// the page observes, side by side with the real (virtual) time. Useful
// for understanding how the kernel's logical clock diverges from real
// execution time.
//
// Usage:
//
//	jsk-sim -scenario clock -defense jskernel-chrome
//	jsk-sim -scenario worker -defense chrome
//	jsk-sim -scenario fetch -defense fuzzyfox
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsk-sim:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("jsk-sim", flag.ContinueOnError)
	var (
		scenario  = fs.String("scenario", "clock", "clock | worker | fetch | svg | policy")
		defenseID = fs.String("defense", "jskernel-chrome", "defense id")
		seed      = fs.Int64("seed", 1, "simulation seed")
		decisions = fs.Bool("decisions", false, "print the kernel's enforcement records from its trace")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	d, err := defense.ByID(*defenseID)
	if err != nil {
		return err
	}
	var sess *trace.Session
	if *decisions {
		sess = trace.NewSession()
		d = d.WithTracer(sess)
	}
	env := d.NewEnv(defense.EnvOptions{Seed: *seed})
	b := env.Browser
	fmt.Fprintf(w, "scenario %q under %s (base %s)\n\n", *scenario, d.Label, d.Base)

	log := func(g *browser.Global, what string) {
		fmt.Fprintf(w, "  %-32s page clock %8.3f ms   real %10.3f ms\n",
			what, g.PerformanceNow(), sim.Time(g.Thread().Now()).Milliseconds())
	}

	switch *scenario {
	case "clock":
		b.RunScript("clock", func(g *browser.Global) {
			log(g, "start")
			g.Busy(25 * sim.Millisecond)
			log(g, "after 25ms of busy work")
			g.SetTimeout(func(gg *browser.Global) {
				log(gg, "setTimeout(10ms) callback")
				gg.RequestAnimationFrame(func(g3 *browser.Global, ts float64) {
					log(g3, fmt.Sprintf("rAF callback (ts=%.3f)", ts))
				})
			}, 10*sim.Millisecond)
		})
	case "worker":
		b.RegisterWorkerScript("demo.js", func(g *browser.Global) {
			g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
				gg.Busy(30 * sim.Millisecond) // background crunch
				gg.PostMessage(fmt.Sprintf("crunched %v", m.Data))
			})
		})
		b.RunScript("worker", func(g *browser.Global) {
			log(g, "creating worker")
			wk, err := g.NewWorker("demo.js")
			if err != nil {
				fmt.Fprintf(w, "  worker creation failed: %v\n", err)
				return
			}
			wk.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
				log(gg, fmt.Sprintf("worker replied: %v", m.Data))
			})
			wk.PostMessage("payload")
		})
	case "fetch":
		b.Net.RegisterScript("https://site.example/data.js", 2_000_000)
		b.RunScript("fetch", func(g *browser.Global) {
			log(g, "fetch 2MB start")
			g.Fetch("https://site.example/data.js", browser.FetchOptions{}, func(r *browser.Response, err error) {
				if err != nil {
					fmt.Fprintf(w, "  fetch failed: %v\n", err)
					return
				}
				log(g, fmt.Sprintf("fetch done (opaque=%v bytes=%d)", r.Opaque, r.Bytes))
			})
		})
	case "svg":
		b.RunScript("svg", func(g *browser.Global) {
			el := g.Document().CreateElement("img")
			el.SetAttribute("width", "1200")
			el.SetAttribute("height", "1200")
			log(g, "before SVG erode filter (1200px)")
			g.ApplySVGFilter(el, "feMorphology:erode")
			log(g, "after SVG erode filter")
		})
	case "policy":
		// Trip several policy rules so there is enforcement to show.
		b.Net.RegisterJSON("https://other.example/api.json", `{}`)
		b.RegisterWorkerScript("probe.js", func(g *browser.Global) {
			if _, err := g.XHR("https://other.example/api.json"); err != nil {
				fmt.Fprintf(w, "  worker cross-origin XHR: %v\n", err)
			}
			_ = g.ImportScripts("https://other.example/lib.js")
		})
		b.RunScript("policy", func(g *browser.Global) {
			if _, err := g.NewWorker("probe.js"); err != nil {
				fmt.Fprintf(w, "  worker: %v\n", err)
			}
		})
	default:
		return fmt.Errorf("unknown scenario %q", *scenario)
	}

	if err := b.RunFor(10 * sim.Second); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nsimulation finished at %v (%d events)\n", env.Sim.Now(), env.Sim.Steps())
	if *decisions {
		if env.Kernel == nil {
			fmt.Fprintln(w, "no kernel in this defense; no enforcement records")
			return nil
		}
		fmt.Fprintln(w, "\nkernel enforcement records:")
		for _, r := range sess.Records() {
			if enforced(r) {
				fmt.Fprintln(w, trace.FormatRecord(r))
			}
		}
	}
	return nil
}

// enforced reports whether a trace record shows the kernel enforcing
// something: a policy verdict other than allow or schedule, or a
// survival incident (recovered panic, quarantine, watchdog expiry,
// overload shed).
func enforced(r trace.Record) bool {
	switch r.Op {
	case trace.OpPolicy:
		return r.Action != "allow" && r.Action != "schedule"
	case trace.OpPanic, trace.OpQuarantine, trace.OpExpire, trace.OpShed:
		return true
	}
	return false
}
