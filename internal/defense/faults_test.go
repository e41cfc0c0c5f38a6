package defense

import (
	"fmt"
	"strings"
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/fault"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// chaosPlan is deliberately violent: every fault category fires often,
// so the determinism guard exercises all injection paths at once.
func chaosPlan() *fault.Plan {
	return &fault.Plan{
		Name: "test-chaos",
		Seed: 4242,
		Net: fault.NetFaults{
			ErrorRate:     0.3,
			ErrorStatus:   503,
			TruncateFrac:  0.5,
			SpikeRate:     0.3,
			SpikeScaleMin: 2,
			SpikeScaleMax: 5,
		},
		Browser: fault.BrowserFaults{
			WorkerCrashRate: 0.3,
			FetchAbortRate:  0.3,
			CancelStorms:    2,
			CancelStormSize: 16,
			OverloadBursts:  2,
			OverloadBusy:    3 * sim.Millisecond,
		},
		Kernel: fault.KernelFaults{
			CallbackPanicRate: 0.2,
			PolicyPanicRate:   0.05,
		},
	}
}

// runChaosWorkload drives a worker-and-fetch-heavy page under the plan
// and returns (kernel trace, native event log) rendered as text. The
// kernel trace holds every policy verdict, lifecycle transition and
// survival incident.
func runChaosWorkload(t *testing.T, plan *fault.Plan, seed int64) (string, string) {
	t.Helper()
	sess := trace.NewSession()
	env := JSKernel("chrome").WithFaults(plan).WithTracer(sess).NewEnv(EnvOptions{Seed: seed})
	b := env.Browser
	rec := &browser.Recorder{}
	b.AddTracer(rec)

	for i := 0; i < 6; i++ {
		b.Net.RegisterScript(fmt.Sprintf("https://site.example/f%d.js", i), 400_000)
	}
	b.RegisterWorkerScript("busy.js", func(g *browser.Global) {
		g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
			gg.PostMessage(m.Data)
		})
	})
	b.RunScript("main", func(g *browser.Global) {
		for i := 0; i < 2; i++ {
			w, err := g.NewWorker("busy.js")
			if err != nil {
				t.Fatalf("NewWorker: %v", err)
			}
			w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {})
			for j := 0; j < 4; j++ {
				w.PostMessage(j)
			}
		}
		for i := 0; i < 6; i++ {
			url := fmt.Sprintf("https://site.example/f%d.js", i)
			g.Fetch(url, browser.FetchOptions{MaxRetries: 2}, func(*browser.Response, error) {})
		}
		for i := 0; i < 5; i++ {
			g.SetTimeout(func(*browser.Global) {}, sim.Duration(i+1)*sim.Millisecond)
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}

	sess.Close()
	recs := sess.Records()
	if _, err := trace.Validate(recs); err != nil {
		t.Fatalf("chaos trace fails validation: %v", err)
	}
	var kernelTrace, native strings.Builder
	if err := trace.WriteText(&kernelTrace, recs); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, ev := range rec.Events() {
		fmt.Fprintf(&native, "%+v\n", ev)
	}
	return kernelTrace.String(), native.String()
}

// TestFaultPlanRunsAreBitIdentical is the determinism regression guard:
// the same (plan, seed) twice must reproduce the kernel trace and the
// full native event log byte for byte.
func TestFaultPlanRunsAreBitIdentical(t *testing.T) {
	k1, n1 := runChaosWorkload(t, chaosPlan(), 11)
	k2, n2 := runChaosWorkload(t, chaosPlan(), 11)
	if k1 != k2 {
		t.Errorf("kernel traces differ (lengths %d vs %d)", len(k1), len(k2))
	}
	if n1 != n2 {
		t.Errorf("native event logs differ (lengths %d vs %d)", len(n1), len(n2))
	}
	if k1 == "" || n1 == "" {
		t.Error("empty trace: workload did not run")
	}
}

// TestFaultPlanSeedMatters: a different run seed must move the faults —
// otherwise the "seeded" in seeded fault plan is an illusion.
func TestFaultPlanSeedMatters(t *testing.T) {
	_, tr1 := runChaosWorkload(t, chaosPlan(), 11)
	_, tr2 := runChaosWorkload(t, chaosPlan(), 12)
	if tr1 == tr2 {
		t.Fatal("different seeds produced identical fault placement")
	}
}

// TestFaultsActuallyFire: the violent plan must exercise every category
// it configures, and the kernel must survive all of it.
func TestFaultsActuallyFire(t *testing.T) {
	plan := chaosPlan()
	plan.Counter = &fault.AtomicCounts{}
	runChaosWorkload(t, plan, 11)
	c := plan.Counter.Snapshot()
	if c.NetErrors == 0 && c.LatencySpikes == 0 {
		t.Errorf("no network faults fired: %s", c)
	}
	if c.WorkerCrashes == 0 {
		t.Errorf("no worker crashes fired: %s", c)
	}
	if c.CancelStorms != 2 || c.OverloadBursts != 2 {
		t.Errorf("storms/bursts incomplete: %s", c)
	}
	if c.CallbackPanics == 0 {
		t.Errorf("no callback panics fired: %s", c)
	}
}

// TestObsTimerWrappersUnderCallbackPanics: with obs events on, under
// the chaos plan's callback faults and with page callbacks that panic
// after re-registering, each timer-fired event is emitted at the entry
// of the callback it names. A fault-panicked or quarantined callback
// never runs its wrapper, so it emits nothing; a callback that panics
// has already emitted its own event, with its own registration's
// delay, and the wrapper it re-registered with fires as the next tick.
func TestObsTimerWrappersUnderCallbackPanics(t *testing.T) {
	sess := trace.NewSession()
	env := JSKernel("chrome").WithFaults(chaosPlan()).WithTracer(sess).WithObs(true).NewEnv(EnvOptions{Seed: 11})
	b := env.Browser
	rec := &browser.Recorder{}
	b.AddTracer(rec)
	// Each registration's delay names it: chain c, tick k. The plan's
	// cancel storms register whole milliseconds, which no tag is.
	const chains, ticks = 4, 40
	tag := func(c, k int) sim.Duration { return 7*sim.Millisecond + 500 + sim.Duration(c*ticks+k) }
	var ran []int64
	b.RunScript("main", func(g *browser.Global) {
		for c := 0; c < chains; c++ {
			k := 0
			var tick func(*browser.Global)
			tick = func(gg *browser.Global) {
				ran = append(ran, int64(tag(c, k)))
				if k++; k < ticks {
					gg.SetTimeout(tick, tag(c, k))
				}
				if k%3 == 0 {
					panic("page callback panic")
				}
			}
			g.SetTimeout(tick, tag(c, 0))
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	sess.Close()
	var fired []int64
	for _, ev := range rec.Events() {
		if ev.Kind == browser.TraceTimerFired && ev.Aux >= int64(tag(0, 0)) && ev.Aux < int64(tag(chains, 0)) {
			fired = append(fired, ev.Aux)
		}
	}
	if len(ran) == 0 || fmt.Sprint(fired) != fmt.Sprint(ran) {
		t.Fatalf("timer-fired events name registrations %v; the callbacks that ran were %v", fired, ran)
	}
	var faults, pagePanics int
	for _, r := range sess.Records() {
		switch {
		case r.Op != trace.OpPanic:
		case strings.Contains(r.Reason, "fault: injected"):
			faults++
		case strings.Contains(r.Reason, "page callback panic"):
			pagePanics++
		default:
			t.Fatalf("unexpected callback panic: %s", r.Reason)
		}
	}
	if faults == 0 || pagePanics == 0 {
		t.Fatalf("%d injected faults and %d page panics, want both", faults, pagePanics)
	}
}
