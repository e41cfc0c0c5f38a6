package kernel_test

import (
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/kernel"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// Coverage of the kernel-mediated resource-load, animation, video, DOM
// attribute and date paths, plus accessor surfaces.

func TestKernelLoadScriptBothOutcomes(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.Net.RegisterScript("https://site.example/lib.js", 200_000)
	var loaded, errored bool
	var loadDisplay float64
	b.RunScript("main", func(g *browser.Global) {
		g.LoadScript("https://site.example/lib.js", func(gg *browser.Global) {
			loaded = true
			loadDisplay = gg.PerformanceNow()
		}, nil)
		g.LoadScript("https://site.example/missing.js", nil, func(*browser.Global) {
			errored = true
		})
	})
	run(t, b)
	if !loaded || !errored {
		t.Fatalf("loaded=%v errored=%v", loaded, errored)
	}
	// Resource loads display at the kernel's 10ms load prediction.
	if loadDisplay != 10 {
		t.Fatalf("load displayed at %v, want the 10ms prediction", loadDisplay)
	}
}

func TestKernelLoadImageBothOutcomes(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.Net.RegisterImage("https://site.example/a.png", 80, 80)
	var el *dom.Element
	var errored bool
	b.RunScript("main", func(g *browser.Global) {
		g.LoadImage("https://site.example/a.png", func(_ *browser.Global, loaded *dom.Element) {
			el = loaded
		}, nil)
		g.LoadImage("https://site.example/missing.png", nil, func(*browser.Global) {
			errored = true
		})
	})
	run(t, b)
	if el == nil {
		t.Fatal("image never loaded through kernel")
	}
	if !errored {
		t.Fatal("image error path not taken")
	}
}

func TestKernelCSSAnimationDeterministicFrames(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	var displays []float64
	b.RunScript("main", func(g *browser.Global) {
		var id int
		id = g.StartCSSAnimation(nil, func(gg *browser.Global, frame int) {
			displays = append(displays, gg.PerformanceNow())
			if frame == 3 {
				gg.StopCSSAnimation(id)
			}
		})
	})
	if err := b.RunFor(sim.Second); err != nil {
		t.Fatal(err)
	}
	if len(displays) != 3 {
		t.Fatalf("frames = %d, want 3", len(displays))
	}
	// Frame ticks display at evenly spaced logical times.
	if displays[1]-displays[0] != displays[2]-displays[1] {
		t.Fatalf("frame displays not evenly spaced: %v", displays)
	}
}

func TestKernelPlayVideoCuesAndStop(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	cues := 0
	b.RunScript("main", func(g *browser.Global) {
		var stop func()
		stop = g.PlayVideo(func(gg *browser.Global, cue int) {
			cues++
			if cue == 2 {
				stop()
			}
		})
	})
	if err := b.RunFor(2 * sim.Second); err != nil {
		t.Fatal(err)
	}
	if cues != 2 {
		t.Fatalf("cues = %d, want 2 (stopped)", cues)
	}
}

func TestKernelDOMAttrAndDate(t *testing.T) {
	b, shared, _ := newKernelBrowser(t, nil)
	b.RunScript("main", func(g *browser.Global) {
		d := g.Document()
		el := d.CreateElement("div")
		g.DOMSetAttribute(el, "k", "v")
		if v, ok := g.DOMGetAttribute(el, "k"); !ok || v != "v" {
			t.Errorf("attr = %q, %v", v, ok)
		}
		// Date.now is the kernel clock: frozen across busy work.
		before := g.DateNow()
		g.Busy(50 * sim.Millisecond)
		if after := g.DateNow(); after != before {
			t.Errorf("Date.now advanced across busy work: %d -> %d", before, after)
		}
	})
	run(t, b)
	k := shared.KernelFor(b.Main())
	if k == nil || k.Queue() == nil || k.Clock() == nil {
		t.Fatal("kernel accessors broken")
	}
	if shared.Policy() == nil {
		t.Fatal("policy accessor broken")
	}
}

func TestFrameStubAccessors(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.RunScript("main", func(g *browser.Global) {
		f, err := g.CreateFrame("https://w.example")
		if err != nil {
			t.Errorf("frame: %v", err)
			return
		}
		if f.ID() == 0 || f.Origin() != "https://w.example" || !f.Attached() {
			t.Errorf("stub accessors: id=%d origin=%q attached=%v", f.ID(), f.Origin(), f.Attached())
		}
	})
	run(t, b)
}

func TestWorkerStubAccessors(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.RegisterWorkerScript("w.js", func(g *browser.Global) {})
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("w.js")
		if err != nil {
			t.Errorf("worker: %v", err)
			return
		}
		if w.ID() == 0 || w.Src() != "w.js" {
			t.Errorf("stub identity: id=%d src=%q", w.ID(), w.Src())
		}
		if w.Thread() == nil || w.Thread() == g.Thread() {
			t.Error("worker thread should be a separate thread")
		}
		_ = w.InFlight()
		w.Release() // idle: released natively
	})
	run(t, b)
}

// TestEnforcementTraced: a worker's cross-origin XHR is denied, and the
// trace records the verdict with the worker and the URL it named.
func TestEnforcementTraced(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	b.Net.RegisterJSON("https://other.example/s.json", `{}`)
	b.RegisterWorkerScript("spy.js", func(g *browser.Global) {
		_, _ = g.XHR("https://other.example/s.json") // denied → traced
	})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("spy.js"); err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	run(t, b)
	var denies []trace.Record
	for _, r := range closeAndValidate(t, ts) {
		if r.Op == trace.OpPolicy && r.API == "xhr" && r.Action == string(kernel.ActionDeny) {
			denies = append(denies, r)
		}
	}
	if len(denies) != 1 {
		t.Fatalf("traced %d XHR denials, want 1", len(denies))
	}
	d := denies[0]
	if d.WorkerID == 0 || d.URL != "https://other.example/s.json" || d.Reason == "" {
		t.Fatalf("denial record = %s", trace.FormatRecord(d))
	}
}

// TestBenignPageEnforcesNothing: a page that only sets a timer draws no
// verdict but allow and schedule, and no survival incident.
func TestBenignPageEnforcesNothing(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	b.RunScript("main", func(g *browser.Global) {
		g.SetTimeout(func(*browser.Global) {}, sim.Millisecond)
	})
	run(t, b)
	for _, r := range closeAndValidate(t, ts) {
		switch r.Op {
		case trace.OpPolicy:
			if r.Action != string(kernel.ActionAllow) && r.Action != "schedule" {
				t.Fatalf("benign page produced enforcement: %s", trace.FormatRecord(r))
			}
		case trace.OpPanic, trace.OpQuarantine, trace.OpExpire, trace.OpShed:
			t.Fatalf("benign page produced an incident: %s", trace.FormatRecord(r))
		}
	}
}

// TestClockExchangeAlignsWorkerClock: §III-E2's kernel-space clock
// exchange — a worker created late starts its logical clock at the
// parent's logical time, not at zero.
func TestClockExchangeAlignsWorkerClock(t *testing.T) {
	b, shared, _ := newKernelBrowser(t, nil)
	var workerClock float64
	b.RegisterWorkerScript("late-spawn.js", func(g *browser.Global) {
		workerClock = g.PerformanceNow()
	})
	b.RunScript("main", func(g *browser.Global) {
		// Advance the main kernel's logical clock well past zero first.
		g.SetTimeout(func(gg *browser.Global) {
			if _, err := gg.NewWorker("late-spawn.js"); err != nil {
				t.Errorf("worker: %v", err)
			}
		}, 40*sim.Millisecond)
	})
	run(t, b)
	mk := shared.KernelFor(b.Main())
	if mk.Clock().Now() < 40*sim.Millisecond {
		t.Fatalf("main logical clock = %v, test setup broken", mk.Clock().Now())
	}
	if workerClock < 40 {
		t.Fatalf("worker clock started at %v ms; clock exchange did not align it to the parent's ~40ms", workerClock)
	}
}
