package kernel_test

import (
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/kernel"
	"jskernel/internal/sim"
)

// Frame-scope kernelization: §VI reason (iii) — the kernel is injected
// into every new JavaScript context, including iframes.

func TestFrameScopesGetKernelized(t *testing.T) {
	b, shared, ts := newTracedKernelBrowser(t, nil)
	b.RunScript("main", func(g *browser.Global) {
		f, err := g.CreateFrame("https://widget.example")
		if err != nil {
			t.Errorf("create frame: %v", err)
			return
		}
		if _, isStub := f.(*kernel.FrameStub); !isStub {
			t.Error("kernel returned the raw frame handle, not a stub")
		}
		if !f.Scope().Frozen() {
			t.Error("frame scope not kernelized (bindings unfrozen)")
		}
		if shared.KernelOf(f.Scope()) == nil {
			t.Error("frame scope has no kernel instance")
		}
		if shared.KernelOf(f.Scope()) == shared.KernelFor(b.Main()) {
			t.Error("frame scope shares the window's kernel; contexts must be separate")
		}
	})
	run(t, b)
	if n := ts.Metrics().Installs; n != 2 {
		t.Fatalf("installs = %d, want 2 (window + frame)", n)
	}
}

func TestFrameMessagingThroughKernels(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	var frameGot, parentGot any
	var parentOrigin string
	b.RunScript("main", func(g *browser.Global) {
		f, err := g.CreateFrame("https://widget.example")
		if err != nil {
			t.Errorf("create frame: %v", err)
			return
		}
		f.RunScript("widget", func(fg *browser.Global) {
			fg.SetOnMessage(func(_ *browser.Global, m browser.MessageEvent) {
				frameGot = m.Data
				fg.PostMessage("pong")
			})
		})
		g.SetOnMessage(func(_ *browser.Global, m browser.MessageEvent) {
			parentGot = m.Data
			parentOrigin = m.Origin
		})
		f.PostMessage("ping", "*")
	})
	run(t, b)
	if frameGot != "ping" || parentGot != "pong" {
		t.Fatalf("round trip: frame=%v parent=%v", frameGot, parentGot)
	}
	if parentOrigin != "https://widget.example" {
		t.Fatalf("origin = %q", parentOrigin)
	}
}

// TestFrameClockIsolatedAndDeterministic: a frame cannot watch the
// window's work through its own clock — each context's logical clock
// advances only with its own events.
func TestFrameClockIsolatedAndDeterministic(t *testing.T) {
	measure := func(mainWork sim.Duration) float64 {
		b, _, _ := newKernelBrowser(t, nil)
		var frameClock float64
		b.RunScript("main", func(g *browser.Global) {
			f, err := g.CreateFrame("https://widget.example")
			if err != nil {
				t.Errorf("create frame: %v", err)
				return
			}
			f.RunScript("widget", func(fg *browser.Global) {
				fg.SetTimeout(func(f3 *browser.Global) {
					frameClock = f3.PerformanceNow()
				}, 5*sim.Millisecond)
			})
			g.Busy(mainWork) // window-side secret work
		})
		run(t, b)
		return frameClock
	}
	fast, slow := measure(1*sim.Millisecond), measure(80*sim.Millisecond)
	if fast != slow {
		t.Fatalf("frame-visible clock depends on window work: %v vs %v", fast, slow)
	}
	if fast != 5 {
		t.Fatalf("frame timer displayed %v, want its 5ms prediction", fast)
	}
}

// TestCrossOriginFrameCannotTimeParent: an attacker iframe spraying
// messages at its embedding window learns nothing about the window's
// secret-dependent work — the frame variant of attack example 1.
func TestCrossOriginFrameCannotTimeParent(t *testing.T) {
	countFor := func(opCost sim.Duration) int {
		b, _, _ := newKernelBrowser(t, nil)
		observed := -1
		b.RunScript("main", func(g *browser.Global) {
			f, err := g.CreateFrame("https://evil.example")
			if err != nil {
				t.Errorf("create frame: %v", err)
				return
			}
			count := 0
			g.SetOnMessage(func(*browser.Global, browser.MessageEvent) { count++ })
			f.RunScript("attacker", func(fg *browser.Global) {
				var spray func(g3 *browser.Global)
				spray = func(g3 *browser.Global) {
					g3.PostMessage("tick")
					g3.SetTimeout(spray, 0)
				}
				spray(fg)
			})
			g.SetTimeout(func(gg *browser.Global) {
				start := count
				gg.Busy(opCost) // the secret
				gg.SetTimeout(func(*browser.Global) { observed = count - start }, 0)
			}, 20*sim.Millisecond)
		})
		if err := b.RunFor(300 * sim.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		if observed < 0 {
			t.Fatal("measurement never completed")
		}
		return observed
	}
	if fast, slow := countFor(1*sim.Millisecond), countFor(60*sim.Millisecond); fast != slow {
		t.Fatalf("frame implicit clock leaked: %d vs %d ticks", fast, slow)
	}
}

func TestFrameRemoveUnderKernel(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	delivered := 0
	b.RunScript("main", func(g *browser.Global) {
		f, err := g.CreateFrame("https://w.example")
		if err != nil {
			t.Errorf("create frame: %v", err)
			return
		}
		f.RunScript("widget", func(fg *browser.Global) {
			fg.SetOnMessage(func(*browser.Global, browser.MessageEvent) { delivered++ })
		})
		g.SetTimeout(func(*browser.Global) {
			f.Remove()
			f.PostMessage("late", "*")
		}, 10*sim.Millisecond)
	})
	run(t, b)
	if delivered != 0 {
		t.Fatalf("delivered = %d into a removed frame", delivered)
	}
}
