package kernel_test

import (
	"errors"
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/kernel"
	"jskernel/internal/policy"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/webnet"
)

// Survival-hardening tests: panicking user callbacks and policies,
// never-confirmed events, and queue overload must all leave the
// dispatcher alive, and the trace must record each incident.

// incidents returns the trace records of one survival-incident op.
func incidents(recs []trace.Record, op trace.Op) []trace.Record {
	var out []trace.Record
	for _, r := range recs {
		if r.Op == op {
			out = append(out, r)
		}
	}
	return out
}

const injectedPanic = "recovered user-callback panic: fault: injected user-callback panic"

func TestCallbackPanicIsolatedAndJournaled(t *testing.T) {
	b, shared, ts := newTracedKernelBrowser(t, nil)
	injected := false
	shared.SetCallbackFault(func(api string) bool {
		if api == "setTimeout" && !injected {
			injected = true
			return true
		}
		return false
	})
	var fired []int
	b.RunScript("main", func(g *browser.Global) {
		g.SetTimeout(func(*browser.Global) { fired = append(fired, 1) }, 1*sim.Millisecond)
		g.SetTimeout(func(*browser.Global) { fired = append(fired, 2) }, 2*sim.Millisecond)
		g.SetTimeout(func(*browser.Global) { fired = append(fired, 3) }, 3*sim.Millisecond)
	})
	run(t, b)
	// The first dispatch panicked inside the injected fault; the kernel
	// must isolate it and dispatch the remaining events.
	if len(fired) != 2 || fired[0] != 2 || fired[1] != 3 {
		t.Fatalf("fired = %v, want [2 3]", fired)
	}
	k := shared.KernelFor(b.Main())
	if k.Panics() != 1 {
		t.Errorf("Panics = %d, want 1", k.Panics())
	}
	if k.Quarantined() {
		t.Error("a single panic must not quarantine the context")
	}
	recs := closeAndValidate(t, ts)
	panics := incidents(recs, trace.OpPanic)
	if len(panics) != 1 {
		t.Fatalf("traced %d panic records, want 1", len(panics))
	}
	if p := panics[0]; p.API != "setTimeout" || p.Action != string(kernel.ActionIsolate) || p.Reason != injectedPanic {
		t.Errorf("panic record = %s", trace.FormatRecord(p))
	}
	if q := incidents(recs, trace.OpQuarantine); len(q) != 0 {
		t.Errorf("one panic traced a quarantine: %s", trace.FormatRecord(q[0]))
	}
}

func TestRepeatedPanicsQuarantineButDrain(t *testing.T) {
	b, shared, ts := newTracedKernelBrowser(t, nil)
	shared.SetCallbackFault(func(api string) bool { return api == "setTimeout" })
	const timers = 12
	fired := 0
	b.RunScript("main", func(g *browser.Global) {
		for i := 0; i < timers; i++ {
			g.SetTimeout(func(*browser.Global) { fired++ }, sim.Duration(i+1)*sim.Millisecond)
		}
	})
	run(t, b)
	if fired != 0 {
		t.Fatalf("fired = %d, want 0 (all dispatches injected to panic)", fired)
	}
	k := shared.KernelFor(b.Main())
	if !k.Quarantined() {
		t.Fatal("context not quarantined after repeated panics")
	}
	if k.Queue().Len() != 0 {
		t.Errorf("queue depth = %d after run, want 0", k.Queue().Len())
	}
	recs := closeAndValidate(t, ts)
	// Quarantine suppresses callbacks but never wedges the queue: every
	// event must still be retired by the dispatcher.
	if got := countOps(recs, trace.OpDispatch, "setTimeout"); got != timers {
		t.Errorf("dispatched %d timers, want %d (quarantined events still drain)", got, timers)
	}
	if m := ts.Metrics(); m.Panics != 8 || m.Quarantines != 1 {
		t.Errorf("metrics: %d panics, %d quarantines; want 8 and 1", m.Panics, m.Quarantines)
	}
	q := incidents(recs, trace.OpQuarantine)
	if len(q) != 1 {
		t.Fatalf("traced %d quarantine records, want 1", len(q))
	}
	const want = "context quarantined after 8 user-callback panics (last: fault: injected user-callback panic)"
	if q[0].Action != string(kernel.ActionQuarantine) || q[0].Reason != want {
		t.Errorf("quarantine record = %s", trace.FormatRecord(q[0]))
	}
}

// panickyPolicy delegates to a real policy but panics when evaluating
// one API — the misbehaving-policy scenario.
type panickyPolicy struct {
	kernel.Policy
	api string
}

func (p *panickyPolicy) Evaluate(ctx kernel.CallContext) kernel.Verdict {
	if ctx.API == p.api {
		panic("boom: policy bug")
	}
	return p.Policy.Evaluate(ctx)
}

func TestPolicyPanicFailsClosed(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, &panickyPolicy{Policy: policy.FullDefense(), api: "fetch"})
	b.Net.RegisterScript("https://site.example/ok.js", 1000)
	var gotErr error
	timerRan := false
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch("https://site.example/ok.js", browser.FetchOptions{}, func(_ *browser.Response, err error) {
			gotErr = err
		})
		g.SetTimeout(func(*browser.Global) { timerRan = true }, 5*sim.Millisecond)
	})
	run(t, b)
	if !errors.Is(gotErr, kernel.ErrPolicyDenied) {
		t.Fatalf("fetch err = %v, want fail-closed policy denial", gotErr)
	}
	if !timerRan {
		t.Fatal("dispatcher wedged after policy panic")
	}
	var verdicts []trace.Record
	for _, r := range closeAndValidate(t, ts) {
		if r.Op == trace.OpPolicy && r.API == "fetch" && r.Event == 0 {
			verdicts = append(verdicts, r)
		}
	}
	if len(verdicts) != 1 || verdicts[0].Action != string(kernel.ActionDeny) ||
		verdicts[0].Reason != "policy panicked; kernel fails closed" {
		t.Fatalf("fetch verdicts = %v, want one fail-closed deny", verdicts)
	}
}

func TestWatchdogExpiresNeverConfirmedEvent(t *testing.T) {
	b, shared, ts := newTracedKernelBrowser(t, nil)
	fired := false
	b.RunScript("main", func(g *browser.Global) {
		// An event that is registered but whose confirmation never
		// arrives — the stuck-native-callback scenario.
		k := shared.KernelOf(g)
		k.Queue().NewEvent("orphan", sim.Time(sim.Millisecond), nil)
		g.SetTimeout(func(*browser.Global) { fired = true }, 5*sim.Millisecond)
	})
	run(t, b)
	if !fired {
		t.Fatal("queue stayed wedged behind a never-confirmed event")
	}
	if b.Sim.Now() < sim.Time(kernel.WatchdogDeadline) {
		t.Fatalf("run ended at %v, before the watchdog deadline", b.Sim.Now())
	}
	// The orphan bypassed the kernel's registration path, so it has no
	// enqueue record and the trace is read without validation.
	exp := incidents(ts.Records(), trace.OpExpire)
	if len(exp) != 1 || exp[0].API != "orphan" || exp[0].Action != string(kernel.ActionExpire) ||
		exp[0].Reason != "watchdog: confirmation never arrived within 60000.000ms" {
		t.Fatalf("expiry records = %v, want one for the orphan", exp)
	}
}

func TestOverloadShedsAndJournals(t *testing.T) {
	b, _, ts := newTracedKernelBrowser(t, nil)
	const extra = 8 // registrations past the bound
	fired := 0
	lateFired := false
	b.RunScript("main", func(g *browser.Global) {
		// Registration from inside a callback, after the queue drains
		// below the bound, must be accepted again.
		g.SetTimeout(func(gg *browser.Global) {
			gg.SetTimeout(func(*browser.Global) { lateFired = true }, sim.Millisecond)
		}, sim.Millisecond)
		for i := 0; i < kernel.MaxQueueDepth-1+extra; i++ {
			g.SetTimeout(func(*browser.Global) { fired++ }, sim.Duration(i+1)*sim.Millisecond)
		}
	})
	run(t, b)
	if fired != kernel.MaxQueueDepth-1 {
		t.Fatalf("fired = %d, want %d (the bound minus the re-arming timer)", fired, kernel.MaxQueueDepth-1)
	}
	if !lateFired {
		t.Fatal("post-drain registration was refused — shedding is sticky")
	}
	sheds := incidents(closeAndValidate(t, ts), trace.OpShed)
	if len(sheds) != extra || ts.Metrics().Shed != extra {
		t.Fatalf("traced %d sheds (metrics %d), want %d", len(sheds), ts.Metrics().Shed, extra)
	}
	for _, r := range sheds {
		if r.Action != string(kernel.ActionShed) || r.Reason != "overload: queue depth at bound (16384)" {
			t.Fatalf("shed record = %s", trace.FormatRecord(r))
		}
	}
}

// flakyURL fails a URL's first n network transfers with a transient
// error, then succeeds.
type flakyURL struct {
	url  string
	left int
}

func (f *flakyURL) FetchFault(url string) webnet.FaultDecision {
	if url == f.url && f.left > 0 {
		f.left--
		return webnet.FaultDecision{
			Err:          &webnet.TransientError{URL: url, Status: 503, Reason: "flaky"},
			TruncateFrac: 0.5,
		}
	}
	return webnet.FaultDecision{}
}

func TestKernelFetchRetriesTransientFailure(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	const url = "https://site.example/flaky.js"
	b.Net.RegisterScript(url, 1000)
	b.Net.SetFaultInjector(&flakyURL{url: url, left: 2})
	var gotErr error
	called := false
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch(url, browser.FetchOptions{MaxRetries: 3}, func(r *browser.Response, err error) {
			called = true
			gotErr = err
		})
	})
	run(t, b)
	if !called {
		t.Fatal("fetch callback never dispatched")
	}
	if gotErr != nil {
		t.Fatalf("fetch should succeed after retries, got %v", gotErr)
	}
}

func TestKernelFetchRetriesExhausted(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	const url = "https://site.example/flaky.js"
	b.Net.RegisterScript(url, 1000)
	b.Net.SetFaultInjector(&flakyURL{url: url, left: 10})
	var gotErr error
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch(url, browser.FetchOptions{MaxRetries: 2}, func(_ *browser.Response, err error) {
			gotErr = err
		})
	})
	run(t, b)
	if !webnet.IsTransient(gotErr) {
		t.Fatalf("err = %v, want the final transient failure after retries exhaust", gotErr)
	}
	if b.Net.TransientFailures() != 3 {
		t.Errorf("TransientFailures = %d, want 3 (initial + 2 retries)", b.Net.TransientFailures())
	}
}

func TestKernelNoRetryWithoutOptIn(t *testing.T) {
	b, _, _ := newKernelBrowser(t, nil)
	const url = "https://site.example/flaky.js"
	b.Net.RegisterScript(url, 1000)
	b.Net.SetFaultInjector(&flakyURL{url: url, left: 1})
	var gotErr error
	b.RunScript("main", func(g *browser.Global) {
		g.Fetch(url, browser.FetchOptions{}, func(_ *browser.Response, err error) { gotErr = err })
	})
	run(t, b)
	if !webnet.IsTransient(gotErr) {
		t.Fatalf("err = %v, want transient failure surfaced without retries", gotErr)
	}
}
