package kernel_test

// Trace-driven coverage of awkward lifecycle corners: the abort/completion
// fetch race, clearInterval from inside a tick, and watchdog expiry of a
// never-confirmed delivery. Each test replays the emitted trace through
// trace.Validate, so the assertions are about the kernel's *transition
// sequence*, not just its externally visible outcome.

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

// newTracedKernelBrowser is newKernelBrowser plus an attached trace
// session (attached before browser.New so the install records land).
func newTracedKernelBrowser(t *testing.T, p kernel.Policy) (*browser.Browser, *kernel.Shared, *trace.Session) {
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
	ts := trace.NewSession()
	shared.SetTracer(ts)
	b := browser.New(s, browser.Options{Net: net, InstallScope: shared.Install, Tracer: vuln.NewRegistry()})
	b.Origin = "https://site.example"
	return b, shared, ts
}

// closeAndValidate closes the session and replays it strictly.
func closeAndValidate(t *testing.T, ts *trace.Session) []trace.Record {
	t.Helper()
	ts.Close()
	recs := ts.Records()
	if _, err := trace.Validate(recs); err != nil {
		t.Fatalf("trace fails validation: %v", err)
	}
	return recs
}

// countOps tallies records matching op and API ("" matches any API).
func countOps(recs []trace.Record, op trace.Op, api string) int {
	n := 0
	for _, r := range recs {
		if r.Op == op && (api == "" || r.API == api) {
			n++
		}
	}
	return n
}

// TestTraceFetchAbortRace injects the FaultHooks.FetchDone race — the
// response completes and an abort lands at the same instant — and
// asserts from the trace that the fetch event was enqueued once and
// reached exactly one terminal state (a dispatch delivering ErrAborted),
// with the queue still draining afterwards.
func TestTraceFetchAbortRace(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	b.Net.RegisterScript("https://site.example/raced.js", 1000)
	raced := true
	b.SetFaultHooks(&browser.FaultHooks{
		FetchDone: func(url string) bool {
			if raced && url == "https://site.example/raced.js" {
				raced = false
				return true
			}
			return false
		},
	})
	var gotErr error
	laterRan := false
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch("https://site.example/raced.js", browser.FetchOptions{}, func(_ *browser.Response, err error) {
			gotErr = err
		})
		g.SetTimeout(func(*browser.Global) { laterRan = true }, 500*sim.Millisecond)
	})
	run(t, b)
	if !errors.Is(gotErr, browser.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted from the injected race", gotErr)
	}
	if !laterRan {
		t.Fatal("queue wedged after injected abort race")
	}

	recs := closeAndValidate(t, ts)
	if got := countOps(recs, trace.OpEnqueue, "fetch"); got != 1 {
		t.Fatalf("fetch enqueued %d times, want 1", got)
	}
	if got := countOps(recs, trace.OpDispatch, "fetch"); got != 1 {
		t.Fatalf("fetch dispatched %d times, want exactly 1 (the error delivery)", got)
	}
	if got := countOps(recs, trace.OpDispatch, "setTimeout"); got != 1 {
		t.Fatalf("trailing timer dispatched %d times, want 1", got)
	}
	if ts.Open() != 0 {
		t.Fatalf("%d events left open", ts.Open())
	}
}

// TestTraceClearIntervalMidTick clears an interval from inside its third
// tick and asserts the trace shows exactly three dispatches with every
// chained registration retired — no cancel on the already-dispatched
// tick, no dangling next tick.
func TestTraceClearIntervalMidTick(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	ticks := 0
	b.RunScript("main", func(g *browser.Global) {
		var id int
		id = g.SetInterval(func(g *browser.Global) {
			ticks++
			if ticks == 3 {
				g.ClearInterval(id)
			}
		}, 10*sim.Millisecond)
	})
	run(t, b)
	if ticks != 3 {
		t.Fatalf("ticks = %d, want 3", ticks)
	}

	recs := closeAndValidate(t, ts)
	if got := countOps(recs, trace.OpDispatch, "setInterval"); got != 3 {
		t.Fatalf("interval dispatched %d times, want 3", got)
	}
	// Each tick's registration reached a terminal state: three dispatches
	// and nothing enqueued-but-open. (clearInterval on the currently
	// dispatching tick is a no-op — the event is already terminal — so no
	// cancel record may appear for it.)
	enq := countOps(recs, trace.OpEnqueue, "setInterval")
	canc := countOps(recs, trace.OpCancel, "setInterval")
	if enq != 3+canc {
		t.Fatalf("interval accounting: %d enqueued, %d dispatched, %d cancelled", enq, 3, canc)
	}
	if ts.Open() != 0 {
		t.Fatalf("%d events left open after clearInterval", ts.Open())
	}
}

// TestTraceWatchdogExpiry starts a fetch whose transfer takes hours of
// virtual time: the kernel event's predicted slot comes up long before
// the native confirmation can arrive, so the pending head blocks the
// queue and the watchdog must force-expire it. The trace must show
// enqueue → policy → expire with no confirm and no dispatch, and the
// timer queued behind the stuck head must dispatch after the expiry.
func TestTraceWatchdogExpiry(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	// ~50 GB: completion lands hours past the watchdog deadline.
	b.Net.RegisterScript("https://site.example/glacial.bin", 50_000_000_000)
	fetchDelivered := false
	timerRan := false
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch("https://site.example/glacial.bin", browser.FetchOptions{},
			func(*browser.Response, error) { fetchDelivered = true })
		g.SetTimeout(func(*browser.Global) { timerRan = true }, 50*sim.Millisecond)
	})
	run(t, b)
	if fetchDelivered {
		t.Fatal("expired fetch must not deliver its callback")
	}
	if !timerRan {
		t.Fatal("queue stayed wedged behind the never-confirmed fetch")
	}

	recs := closeAndValidate(t, ts)
	if got := countOps(recs, trace.OpExpire, "fetch"); got != 1 {
		t.Fatalf("watchdog expiries for the stuck fetch = %d, want 1", got)
	}
	if got := countOps(recs, trace.OpConfirm, "fetch"); got != 0 {
		t.Fatalf("stuck fetch was confirmed %d times, want 0", got)
	}
	if got := countOps(recs, trace.OpDispatch, "fetch"); got != 0 {
		t.Fatalf("stuck fetch dispatched %d times, want 0", got)
	}
	if got := countOps(recs, trace.OpDispatch, "setTimeout"); got != 1 {
		t.Fatalf("blocked timer dispatched %d times, want 1", got)
	}
	// The expiry happened on the worker kernel's scope, at or after the
	// deadline.
	for _, r := range recs {
		if r.Op == trace.OpExpire {
			if r.VT < sim.Time(kernel.WatchdogDeadline) {
				t.Fatalf("expiry at %v, before the %v deadline", r.VT, kernel.WatchdogDeadline)
			}
			if r.Scope == 0 {
				t.Fatal("expiry record not bound to a scope")
			}
		}
	}
}
