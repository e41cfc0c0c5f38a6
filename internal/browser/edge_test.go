package browser

import (
	"testing"

	"jskernel/internal/sim"
)

// Edge-case and failure-injection coverage for the native substrate.

func TestXHRUnknownURL(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		if _, err := g.XHR("https://site.example/missing.json"); err == nil {
			t.Error("XHR of unregistered URL should fail")
		}
	})
	run(t, b)
}

func TestLoadScriptErrorPath(t *testing.T) {
	b := newTestBrowser(t)
	errored := false
	loaded := false
	b.RunScript("main", func(g *Global) {
		g.LoadScript("https://cdn.example/gone.js",
			func(*Global) { loaded = true },
			func(*Global) { errored = true })
	})
	run(t, b)
	if loaded || !errored {
		t.Fatalf("loaded=%v errored=%v; want error path only", loaded, errored)
	}
}

func TestLoadImageErrorPath(t *testing.T) {
	b := newTestBrowser(t)
	errored := false
	b.RunScript("main", func(g *Global) {
		g.LoadImage("https://cdn.example/gone.png", nil, func(*Global) { errored = true })
	})
	run(t, b)
	if !errored {
		t.Fatal("image error path not taken")
	}
}

func TestImportScriptsOutsideWorkerFails(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		if err := g.ImportScripts("https://site.example/lib.js"); err == nil {
			t.Error("importScripts on the main thread should fail")
		}
	})
	run(t, b)
}

func TestWorkerLocationMainThreadEmpty(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		if loc := g.WorkerLocation(); loc != "" {
			t.Errorf("main-thread worker location = %q, want empty", loc)
		}
	})
	run(t, b)
}

func TestWorkerLocationSameOrigin(t *testing.T) {
	b := newTestBrowser(t)
	var loc string
	b.RegisterWorkerScript("app.js", func(g *Global) { loc = g.WorkerLocation() })
	b.RunScript("main", func(g *Global) {
		if _, err := g.NewWorker("app.js"); err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	run(t, b)
	if loc != "https://site.example/app.js" {
		t.Fatalf("location = %q", loc)
	}
}

func TestNestedWorkersRejected(t *testing.T) {
	b := newTestBrowser(t)
	var nestedErr error
	b.RegisterWorkerScript("outer.js", func(g *Global) {
		_, nestedErr = g.NewWorker("outer.js")
	})
	b.RunScript("main", func(g *Global) {
		if _, err := g.NewWorker("outer.js"); err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	run(t, b)
	if nestedErr == nil {
		t.Fatal("nested worker creation should fail")
	}
}

func TestSharedBufferNilAndFreedAccess(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		if _, err := g.SharedBufferRead(nil, 0); err == nil {
			t.Error("nil buffer read should fail")
		}
		if err := g.SharedBufferWrite(nil, 0, 1); err == nil {
			t.Error("nil buffer write should fail")
		}
		buf := g.NewSharedBuffer(1)
		if buf.Len() != 1 || buf.Freed() {
			t.Errorf("fresh buffer state wrong: len=%d freed=%v", buf.Len(), buf.Freed())
		}
		if err := g.SharedBufferWrite(buf, -1, 0); err == nil {
			t.Error("negative index should fail")
		}
	})
	run(t, b)
}

func TestTransferToParentOutsideWorkerFails(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		buf := g.NewSharedBuffer(1)
		if err := g.TransferToParent("x", buf); err == nil {
			t.Error("TransferToParent from the main scope should fail")
		}
	})
	run(t, b)
}

func TestIDBGetMissingKey(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		store, err := g.IndexedDBOpen("s")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		if _, ok := store.Get("nope"); ok {
			t.Error("missing key should not be found")
		}
		if err := store.Put("k", "v"); err != nil {
			t.Errorf("put: %v", err)
		}
		if v, ok := store.Get("k"); !ok || v != "v" {
			t.Errorf("get = %q, %v", v, ok)
		}
	})
	run(t, b)
}

func TestAppendChildCostedWrapper(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		d := g.Document()
		el := d.CreateElement("div")
		start := g.Thread().Now()
		if err := g.AppendChild(d.Body(), el); err != nil {
			t.Errorf("append: %v", err)
		}
		if g.Thread().Now() == start {
			t.Error("costed append advanced no time")
		}
		// Error propagation: cyclic append must fail.
		if err := g.AppendChild(el, d.Body()); err == nil {
			t.Error("cyclic append should fail")
		}
	})
	run(t, b)
}

func TestDOMAttrBindingsCost(t *testing.T) {
	b := newTestBrowser(t)
	b.RunScript("main", func(g *Global) {
		d := g.Document()
		el := d.CreateElement("div")
		start := g.Thread().Now()
		g.DOMSetAttribute(el, "k", "v")
		v, ok := g.DOMGetAttribute(el, "k")
		if !ok || v != "v" {
			t.Errorf("attr round trip = %q, %v", v, ok)
		}
		if g.Thread().Now()-start != 2*b.Profile.DOMAttrAccess {
			t.Errorf("attr access cost = %v, want 2×%v", g.Thread().Now()-start, b.Profile.DOMAttrAccess)
		}
		// nil element: no-op, no panic.
		g.DOMSetAttribute(nil, "k", "v")
		if _, ok := g.DOMGetAttribute(nil, "k"); ok {
			t.Error("nil element attr read should miss")
		}
	})
	run(t, b)
}

func TestRunForStopsAtHorizon(t *testing.T) {
	b := newTestBrowser(t)
	ticks := 0
	b.RunScript("main", func(g *Global) {
		var tick func(gg *Global)
		tick = func(gg *Global) {
			ticks++
			gg.SetTimeout(tick, sim.Millisecond)
		}
		g.SetTimeout(tick, sim.Millisecond)
	})
	if err := b.RunFor(50 * sim.Millisecond); err != nil {
		t.Fatal(err)
	}
	if ticks < 40 || ticks > 60 {
		t.Fatalf("ticks = %d in 50ms at ~1ms cadence", ticks)
	}
}

func TestQueueDepthAndTasksExecuted(t *testing.T) {
	b := newTestBrowser(t)
	main := b.Main()
	before := main.TasksExecuted()
	b.RunScript("a", func(g *Global) {})
	b.RunScript("b", func(g *Global) {})
	if main.QueueDepth() != 2 {
		t.Fatalf("queue depth = %d, want 2 before run", main.QueueDepth())
	}
	run(t, b)
	if main.TasksExecuted()-before != 2 {
		t.Fatalf("executed = %d, want 2", main.TasksExecuted()-before)
	}
	if main.QueueDepth() != 0 {
		t.Fatal("queue not drained")
	}
}

func TestRecorderCapturesAndResets(t *testing.T) {
	b := newTestBrowser(t)
	rec := &Recorder{}
	b.AddTracer(rec)
	b.RegisterWorkerScript("w.js", func(g *Global) {})
	b.RunScript("main", func(g *Global) {
		if _, err := g.NewWorker("w.js"); err != nil {
			t.Errorf("worker: %v", err)
		}
	})
	run(t, b)
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing")
	}
	events := rec.Events()
	events[0] = TraceEvent{} // mutating the copy must not affect the recorder
	if rec.Events()[0].Kind == 0 {
		t.Fatal("Events() returned shared backing storage")
	}
	rec.Reset()
	if rec.Len() != 0 {
		t.Fatal("reset did not clear")
	}
}

func TestMultiTracerFanout(t *testing.T) {
	b := newTestBrowser(t)
	r1, r2, r3 := &Recorder{}, &Recorder{}, &Recorder{}
	b.AddTracer(r1)
	b.AddTracer(r2)
	b.AddTracer(r3)
	b.AddTracer(nil) // ignored
	b.RunScript("main", func(g *Global) { g.PostMessage("x") })
	run(t, b)
	if r1.Len() == 0 || r1.Len() != r2.Len() || r2.Len() != r3.Len() {
		t.Fatalf("fanout uneven: %d/%d/%d", r1.Len(), r2.Len(), r3.Len())
	}
}

func TestSelfPostMessageRoundTrip(t *testing.T) {
	b := newTestBrowser(t)
	var got any
	b.RunScript("main", func(g *Global) {
		g.SetOnMessage(func(_ *Global, m MessageEvent) { got = m.Data })
		g.PostMessage("self")
	})
	run(t, b)
	if got != "self" {
		t.Fatalf("self post got %v", got)
	}
}

func TestTraceKindStrings(t *testing.T) {
	for k := TraceWorkerCreated; k <= TraceAccess; k++ {
		if k.String() == "unknown" {
			t.Errorf("TraceKind(%d) has no name", k)
		}
		// KindByName must invert String for every kind.
		if got, ok := KindByName(k.String()); !ok || got != k {
			t.Errorf("KindByName(%q) = %d, %v; want %d", k.String(), got, ok, k)
		}
	}
	for _, k := range []TraceKind{0, -1, TraceAccess + 1, 999} {
		if k.String() != "unknown" {
			t.Errorf("invalid kind %d should be unknown, got %q", k, k.String())
		}
	}
	if _, ok := KindByName("unknown"); ok {
		t.Error("KindByName resolved an unknown name")
	}
}
