package kernel_test

import (
	"errors"
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/kernel"
	"jskernel/internal/policy"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
	"jskernel/internal/webnet"
)

// newKernelBrowser builds a Chrome browser with a fully kernelized scope
// under the given policy (FullDefense when nil), plus an armed CVE
// registry.
func newKernelBrowser(t *testing.T, p kernel.Policy) (*browser.Browser, *kernel.Shared, *vuln.Registry) {
	t.Helper()
	if p == nil {
		p = policy.FullDefense()
	}
	s := sim.New(1)
	s.MaxSteps = 5_000_000
	cfg := webnet.DefaultConfig()
	cfg.JitterFrac = 0
	net := webnet.New(cfg, s.Rand())
	shared := kernel.NewShared(p)
	reg := vuln.NewRegistry()
	b := browser.New(s, browser.Options{Net: net, InstallScope: shared.Install, Tracer: reg})
	b.Origin = "https://site.example"
	return b, shared, reg
}

func run(t *testing.T, b *browser.Browser) {
	t.Helper()
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

func TestInstallFreezesBindings(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	if n := ts.Metrics().Installs; n != 1 {
		t.Fatalf("installs = %d, want 1 (main scope)", n)
	}
	b.RunScript("main", func(g *browser.Global) {
		if !g.Frozen() {
			t.Error("kernelized scope not frozen")
		}
		if err := g.Redefine(func(*browser.Bindings) {}); !errors.Is(err, browser.ErrFrozen) {
			t.Errorf("redefine after kernelization: err = %v", err)
		}
	})
	run(t, b)
}

func TestWorkersGetKernelized(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	b.RegisterWorkerScript("w.js", func(g *browser.Global) {
		if !g.Frozen() {
			t.Error("worker scope not kernelized")
		}
	})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("w.js"); err != nil {
			t.Errorf("new worker: %v", err)
		}
	})
	run(t, b)
	if n := ts.Metrics().Installs; n != 2 {
		t.Fatalf("installs = %d, want 2", n)
	}
}

func TestKernelClockIgnoresBusyWork(t *testing.T) {
	// The core determinism property: synchronous computation is invisible
	// to the displayed clock.
	b, _, _ := newKernelBrowser(t, nil)
	var before, after float64
	b.RunScript("main", func(g *browser.Global) {
		before = g.PerformanceNow()
		g.Busy(500 * sim.Millisecond)
		after = g.PerformanceNow()
	})
	run(t, b)
	if before != after {
		t.Fatalf("kernel clock advanced across Busy: %v -> %v", before, after)
	}
}

func TestKernelSetTimeoutDispatchesAtPredictedTime(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	var display float64
	b.RunScript("main", func(g *browser.Global) {
		g.SetTimeout(func(gg *browser.Global) {
			display = gg.PerformanceNow()
		}, 5*sim.Millisecond)
	})
	run(t, b)
	if display != 5 {
		t.Fatalf("timeout displayed clock %v, want exactly the 5ms prediction", display)
	}
	if countOps(closeAndValidate(t, ts), trace.OpDispatch, "setTimeout") != 1 {
		t.Fatal("kernel did not dispatch the timeout")
	}
}

func TestKernelClearTimeout(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	fired := false
	b.RunScript("main", func(g *browser.Global) {
		id := g.SetTimeout(func(*browser.Global) { fired = true }, 3*sim.Millisecond)
		g.ClearTimeout(id)
	})
	run(t, b)
	if fired {
		t.Fatal("cancelled kernel timeout fired")
	}
}

func TestKernelIntervalChain(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	var displays []float64
	b.RunScript("main", func(g *browser.Global) {
		var id int
		id = g.SetInterval(func(gg *browser.Global) {
			displays = append(displays, gg.PerformanceNow())
			if len(displays) == 3 {
				gg.ClearInterval(id)
			}
		}, 2*sim.Millisecond)
	})
	run(t, b)
	if len(displays) != 3 {
		t.Fatalf("interval fired %d times, want 3", len(displays))
	}
	for i, want := range []float64{2, 4, 6} {
		if displays[i] != want {
			t.Fatalf("interval displays = %v, want exact 2ms chain", displays)
		}
	}
}

func TestKernelRAFDeterministicTimestamps(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	var ts []float64
	b.RunScript("main", func(g *browser.Global) {
		var loop func(gg *browser.Global, t float64)
		loop = func(gg *browser.Global, t float64) {
			ts = append(ts, t)
			if len(ts) < 3 {
				gg.RequestAnimationFrame(loop)
			}
		}
		g.RequestAnimationFrame(loop)
	})
	run(t, b)
	if len(ts) != 3 {
		t.Fatalf("rAF fired %d times", len(ts))
	}
	// Frame quantum is 16.667ms quantized to 1ms → 17ms steps, displayed
	// exactly.
	if ts[1]-ts[0] != ts[2]-ts[1] {
		t.Fatalf("rAF timestamps not evenly spaced: %v", ts)
	}
}

func TestWorkerRoundTripThroughKernel(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.RegisterWorkerScript("echo.js", func(g *browser.Global) {
		g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
			gg.PostMessage(m.Data)
		})
	})
	var got any
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("echo.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		w.SetOnMessage(func(_ *browser.Global, m browser.MessageEvent) { got = m.Data })
		w.PostMessage("ping")
	})
	run(t, b)
	if got != "ping" {
		t.Fatalf("round trip through kernel got %v", got)
	}
}

func TestWorkerStubIsNotNativeHandle(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.RegisterWorkerScript("w.js", func(g *browser.Global) {})
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("w.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		if _, isNative := w.(*browser.WorkerHandle); isNative {
			t.Error("kernel returned the raw native handle, not a stub")
		}
		if _, isStub := w.(*kernel.WorkerStub); !isStub {
			t.Error("kernel worker is not a WorkerStub")
		}
	})
	run(t, b)
}

// TestImplicitClockDefeated is the headline security property (attack
// example 1 of the paper): the number of worker onmessage events observed
// around a secret-dependent synchronous operation must not depend on the
// secret.
func TestImplicitClockDefeated(t *testing.T) {
	countFor := func(opCost sim.Duration) int {
		b, _, _ := newKernelBrowser(t, nil)
		b.RegisterWorkerScript("clock.js", func(g *browser.Global) {
			// The implicit clock: a worker spraying messages.
			var spray func(gg *browser.Global)
			spray = func(gg *browser.Global) {
				gg.PostMessage("tick")
				gg.SetTimeout(spray, sim.Millisecond)
			}
			spray(g)
		})
		count := 0
		observed := -1
		b.RunScript("main", func(g *browser.Global) {
			w, err := g.NewWorker("clock.js")
			if err != nil {
				t.Errorf("new worker: %v", err)
				return
			}
			w.SetOnMessage(func(*browser.Global, browser.MessageEvent) { count++ })
			g.SetTimeout(func(gg *browser.Global) {
				start := count
				gg.Busy(opCost) // the secret-dependent operation
				observed = count - start
			}, 20*sim.Millisecond)
		})
		if err := b.RunFor(200 * sim.Millisecond); err != nil {
			t.Fatalf("run: %v", err)
		}
		if count == 0 {
			t.Fatal("implicit clock produced no ticks; the measurement is vacuous")
		}
		if observed < 0 {
			t.Fatal("measurement callback never ran")
		}
		return observed
	}
	shortOp, longOp := countFor(1*sim.Millisecond), countFor(80*sim.Millisecond)
	if shortOp != longOp {
		t.Fatalf("implicit clock leaked: %d ticks vs %d ticks", shortOp, longOp)
	}
}

func TestFetchThroughKernelDisplaysPrediction(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	b.Net.RegisterScript("https://site.example/big.js", 5_000_000)
	var display float64
	var resp *browser.Response
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch("https://site.example/big.js", browser.FetchOptions{}, func(r *browser.Response, err error) {
			if err != nil {
				t.Errorf("fetch: %v", err)
				return
			}
			resp = r
			display = g.PerformanceNow()
		})
	})
	run(t, b)
	if resp == nil {
		t.Fatal("fetch never completed")
	}
	// The displayed completion time is the 10ms load prediction, not the
	// multi-second real transfer time.
	if display != 10 {
		t.Fatalf("fetch completion displayed at %vms, want the 10ms prediction", display)
	}
}

func TestCVE20131714WorkerXHRBlocked(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	b.Net.RegisterJSON("https://other.example/secret.json", `{"s":1}`)
	var xhrErr error
	var body string
	b.RegisterWorkerScript("xhr.js", func(g *browser.Global) {
		body, xhrErr = g.XHR("https://other.example/secret.json")
	})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("xhr.js"); err != nil {
			t.Errorf("new worker: %v", err)
		}
	})
	run(t, b)
	if xhrErr == nil || body != "" {
		t.Fatalf("worker cross-origin XHR not denied: body=%q err=%v", body, xhrErr)
	}
	if !errors.Is(xhrErr, kernel.ErrPolicyDenied) {
		t.Fatalf("err = %v, want policy denial", xhrErr)
	}
	if reg.Exploited(vuln.CVE20131714) {
		t.Fatal("CVE-2013-1714 triggered despite kernel policy")
	}
}

func TestCVE20177843IndexedDBDeniedInPrivateMode(t *testing.T) {
	p := policy.FullDefense()
	s := sim.New(1)
	shared := kernel.NewShared(p)
	reg := vuln.NewRegistry()
	b := browser.New(s, browser.Options{PrivateMode: true, InstallScope: shared.Install, Tracer: reg})
	b.Origin = "https://site.example"
	var openErr error
	b.RunScript("main", func(g *browser.Global) {
		_, openErr = g.IndexedDBOpen("fp")
	})
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !errors.Is(openErr, kernel.ErrPolicyDenied) {
		t.Fatalf("open err = %v, want policy denial", openErr)
	}
	if reg.Exploited(vuln.CVE20177843) {
		t.Fatal("CVE-2017-7843 triggered despite kernel policy")
	}
	if len(b.PersistedStores()) != 0 {
		t.Fatal("private-mode data persisted despite kernel policy")
	}
}

func TestCVE20185092TerminateDeferredUntilFetchDrains(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	b.Net.RegisterScript("https://site.example/file0.html", 2_000_000)
	var ctl *browser.AbortController
	b.RegisterWorkerScript("fetcher.js", func(g *browser.Global) {
		ctl = g.NewAbortController()
		g.Fetch("https://site.example/file0.html", browser.FetchOptions{Signal: ctl.Signal()}, func(*browser.Response, error) {})
		g.PostMessage("fetch-started")
	})
	var stub *kernel.WorkerStub
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("fetcher.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		var ok bool
		stub, ok = w.(*kernel.WorkerStub)
		if !ok {
			t.Error("not a stub")
			return
		}
		w.SetOnMessage(func(gg *browser.Global, _ browser.MessageEvent) {
			w.Terminate() // false termination while fetch pending
			if w.Alive() {
				t.Error("stub should report terminated to user space")
			}
			if !stub.NativeAlive() {
				t.Error("kernel should retain the native worker while fetch is pending")
			}
			ctl.Abort() // the abort that would hit freed state
		})
	})
	run(t, b)
	if reg.Exploited(vuln.CVE20185092) {
		t.Fatal("CVE-2018-5092 triggered despite kernel policy")
	}
	if stub != nil && stub.NativeAlive() {
		t.Fatal("native worker should be terminated once the fetch drained")
	}
}

func TestCVE20135602OnMessageSetterTrapped(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	b.RegisterWorkerScript("w.js", func(g *browser.Global) {})
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("w.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		g.SetTimeout(func(*browser.Global) {
			w.Terminate()
			w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {}) // would null-deref natively
		}, 10*sim.Millisecond)
	})
	run(t, b)
	if reg.Exploited(vuln.CVE20135602) {
		t.Fatal("CVE-2013-5602 triggered despite the kernel's setter trap")
	}
}

func TestCVE20141488TransferRetainsWorker(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	var readErr error
	b.RegisterWorkerScript("transfer.js", func(g *browser.Global) {
		buf := g.NewSharedBuffer(4)
		if err := g.SharedBufferWrite(buf, 0, 7); err != nil {
			t.Errorf("write: %v", err)
		}
		if err := g.TransferToParent("buf", buf); err != nil {
			t.Errorf("transfer: %v", err)
		}
	})
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("transfer.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		w.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
			w.Terminate() // kernel retains: buffer must stay valid
			v, err := gg.SharedBufferRead(m.Transfer, 0)
			readErr = err
			if err == nil && v != 7 {
				t.Errorf("read %d, want 7", v)
			}
		})
	})
	run(t, b)
	if readErr != nil {
		t.Fatalf("buffer read after user-level terminate failed: %v", readErr)
	}
	if reg.Exploited(vuln.CVE20141488) {
		t.Fatal("CVE-2014-1488 triggered despite retain policy")
	}
}

func TestCVE20104576TeardownDropsWorkerMessages(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	b.RegisterWorkerScript("late.js", func(g *browser.Global) {
		g.SetOnMessage(func(gg *browser.Global, _ browser.MessageEvent) {
			gg.PostMessage("reply-after-teardown")
		})
	})
	b.RunScript("main", func(g *browser.Global) {
		w, err := g.NewWorker("late.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {})
		g.SetTimeout(func(gg *browser.Global) {
			gg.Browser().TearDownDocument()
			w.PostMessage("poke") // worker will reply into torn-down doc
		}, 10*sim.Millisecond)
	})
	run(t, b)
	if reg.Exploited(vuln.CVE20104576) {
		t.Fatal("CVE-2010-4576 triggered despite teardown policy")
	}
}

func TestCVE20141487WorkerCreationErrorSanitized(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	var errMsg string
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("https://evil.example/w.js"); err != nil {
			errMsg = err.Error()
		}
	})
	run(t, b)
	if errMsg == "" {
		t.Fatal("cross-origin worker creation should still fail")
	}
	if containsStr(errMsg, "evil.example") {
		t.Fatalf("sanitized error still leaks URL: %q", errMsg)
	}
	if reg.Exploited(vuln.CVE20141487) {
		t.Fatal("CVE-2014-1487 triggered despite sanitization")
	}
}

func TestCVE20157215ImportScriptsSanitized(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	var leak string
	b.RegisterWorkerScript("imp.js", func(g *browser.Global) {
		if err := g.ImportScripts("https://other.example/lib.js"); err != nil {
			leak = err.Error()
		}
	})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("imp.js"); err != nil {
			t.Errorf("new worker: %v", err)
		}
	})
	run(t, b)
	if leak == "" {
		t.Fatal("cross-origin importScripts should fail")
	}
	if containsStr(leak, "other.example") {
		t.Fatalf("sanitized importScripts error leaks URL: %q", leak)
	}
	if reg.Exploited(vuln.CVE20157215) {
		t.Fatal("CVE-2015-7215 triggered despite sanitization")
	}
}

func TestCVE20111190WorkerLocationSanitized(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	b.SetRedirect("w.js", "https://tracker.example/real-worker.js")
	var loc string
	b.RegisterWorkerScript("w.js", func(g *browser.Global) {
		loc = g.WorkerLocation()
	})
	b.RunScript("main", func(g *browser.Global) {
		if _, err := g.NewWorker("w.js"); err != nil {
			t.Errorf("new worker: %v", err)
		}
	})
	run(t, b)
	if containsStr(loc, "tracker.example") {
		t.Fatalf("worker location leaks redirect target: %q", loc)
	}
	if reg.Exploited(vuln.CVE20111190) {
		t.Fatal("CVE-2011-1190 triggered despite sanitization")
	}
}

func TestCVE20143194SharedBufferSerialized(t *testing.T) {
	b, _, reg := newKernelBrowser(t, nil)
	var buf *browser.SharedBuffer
	b.RegisterWorkerScript("racer.js", func(g *browser.Global) {
		g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
			for i := 0; i < 20; i++ {
				if err := gg.SharedBufferWrite(m.Transfer, 0, int64(i)); err != nil {
					t.Errorf("worker write: %v", err)
					return
				}
			}
		})
	})
	b.RunScript("main", func(g *browser.Global) {
		buf = g.NewSharedBuffer(4)
		w, err := g.NewWorker("racer.js")
		if err != nil {
			t.Errorf("new worker: %v", err)
			return
		}
		w.PostMessageTransfer("race", buf)
		var hammer func(gg *browser.Global)
		n := 0
		hammer = func(gg *browser.Global) {
			if _, err := gg.SharedBufferRead(buf, 0); err != nil {
				return
			}
			if n++; n < 20 {
				gg.SetTimeout(hammer, sim.Millisecond)
			}
		}
		hammer(g)
	})
	run(t, b)
	if reg.Exploited(vuln.CVE20143194) {
		t.Fatal("CVE-2014-3194 race triggered despite kernel serialization")
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
