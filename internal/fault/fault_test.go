package fault

import (
	"strings"
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/kernel"
	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

func TestStandardPlansAreDistinctAndResolvable(t *testing.T) {
	plans := StandardPlans()
	if len(plans) < 3 {
		t.Fatalf("need >=3 standard plans, got %d", len(plans))
	}
	seen := map[string]bool{}
	for _, p := range plans {
		if seen[p.Name] {
			t.Errorf("duplicate plan name %q", p.Name)
		}
		seen[p.Name] = true
	}
}

func TestFetchFaultRatesAndExemptions(t *testing.T) {
	plan := &Plan{
		Name: "t",
		Seed: 7,
		Net: NetFaults{
			ErrorRate:     0.5,
			ErrorStatus:   503,
			TruncateFrac:  0.25,
			SpikeRate:     0.5,
			SpikeScaleMin: 2,
			SpikeScaleMax: 4,
			ExemptURLs:    []string{"https://safe.example/probe.js"},
		},
	}
	in := NewInjector(plan, 1)
	const n = 2000
	for i := 0; i < n; i++ {
		in.FetchFault("https://site.example/a.js")
	}
	c := in.Counts()
	if c.NetErrors == 0 || c.LatencySpikes == 0 {
		t.Fatalf("expected both fault kinds to fire, got %s", c)
	}
	// Rough rate sanity: at 50% each, both should land within wide bounds.
	if c.NetErrors < n/4 || c.NetErrors > 3*n/4 {
		t.Errorf("NetErrors=%d implausible for rate 0.5 over %d draws", c.NetErrors, n)
	}

	in2 := NewInjector(plan, 1)
	for i := 0; i < 500; i++ {
		if d := in2.FetchFault("https://safe.example/probe.js"); d.Err != nil || d.LatencyScale != 0 {
			t.Fatal("exempt URL must never be faulted")
		}
	}
	if in2.Counts().Total() != 0 {
		t.Fatalf("exempt URL bumped counts: %s", in2.Counts())
	}

	always := *plan
	always.Net.ErrorRate = 1
	d := NewInjector(&always, 1).FetchFault("https://always.example/x")
	if d.Err == nil {
		t.Fatal("ErrorRate 1 must always fault")
	}
	if !webnet.IsTransient(d.Err) {
		t.Fatalf("injected error should be transient, got %T", d.Err)
	}
	if d.TruncateFrac != 0.25 {
		t.Errorf("TruncateFrac = %v, want 0.25", d.TruncateFrac)
	}
}

func TestInjectorStreamsAreIndependent(t *testing.T) {
	plan := &Plan{
		Name:    "t",
		Seed:    9,
		Net:     NetFaults{ErrorRate: 0.3},
		Browser: BrowserFaults{WorkerCrashRate: 0.3, FetchAbortRate: 0.3},
		Kernel:  KernelFaults{CallbackPanicRate: 0.3},
	}
	// Reference: worker-crash decisions with no other draws interleaved.
	ref := NewInjector(plan, 5)
	var want []bool
	h := ref.BrowserHooks()
	for i := 0; i < 64; i++ {
		want = append(want, h.WorkerDelivery(1))
	}
	// Same plan+seed, but with net and callback draws interleaved: the
	// worker stream must be unaffected.
	in := NewInjector(plan, 5)
	h2 := in.BrowserHooks()
	for i := 0; i < 64; i++ {
		in.FetchFault("https://x.example/a")
		in.CallbackPanic("setTimeout")
		if got := h2.WorkerDelivery(1); got != want[i] {
			t.Fatalf("worker stream perturbed by other layers at draw %d", i)
		}
	}
}

func TestBrowserHooksNilWhenUnused(t *testing.T) {
	in := NewInjector(&Plan{Name: "t", Seed: 1}, 1)
	if in.BrowserHooks() != nil {
		t.Fatal("plan without browser faults should yield nil hooks")
	}
}

type stubPolicy struct{}

func (stubPolicy) Name() string          { return "stub" }
func (stubPolicy) Deterministic() bool   { return true }
func (stubPolicy) Quantum() sim.Duration { return sim.Millisecond }
func (stubPolicy) PredictDelay(api string, req sim.Duration) sim.Duration {
	return kernel.DefaultPredictDelay(api, req, sim.Millisecond, 0)
}
func (stubPolicy) Evaluate(kernel.CallContext) kernel.Verdict { return kernel.Allow }

func TestWrapPolicyPanicsAtRate(t *testing.T) {
	noFault := NewInjector(&Plan{Name: "t", Seed: 3}, 1)
	if p := noFault.WrapPolicy(stubPolicy{}); p != (stubPolicy{}) {
		t.Fatal("zero panic rate must return the policy unchanged")
	}

	in := NewInjector(&Plan{Name: "t", Seed: 3, Kernel: KernelFaults{PolicyPanicRate: 1}}, 1)
	wrapped := in.WrapPolicy(stubPolicy{})
	if wrapped.Name() != "stub" || !wrapped.Deterministic() {
		t.Fatal("wrapper must delegate the policy surface")
	}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("rate-1 wrapped policy must panic")
			}
			if !strings.Contains(r.(string), "injected policy panic") {
				t.Fatalf("unexpected panic payload %v", r)
			}
		}()
		wrapped.Evaluate(kernel.CallContext{API: "fetch"})
	}()
	if in.Counts().PolicyPanics != 1 {
		t.Fatalf("PolicyPanics = %d, want 1", in.Counts().PolicyPanics)
	}
}

func TestArmSchedulesStormsAndBursts(t *testing.T) {
	plan := &Plan{
		Name: "t",
		Seed: 4,
		Browser: BrowserFaults{
			CancelStorms:    2,
			CancelStormSize: 8,
			OverloadBursts:  2,
			OverloadBusy:    2 * sim.Millisecond,
		},
	}
	in := NewInjector(plan, 1)
	s := sim.New(1)
	net := webnet.New(webnet.DefaultConfig(), s.Rand())
	b := browser.New(s, browser.Options{Profile: browser.ProfileByName("chrome"), Net: net})
	in.Arm(b)
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	c := in.Counts()
	if c.CancelStorms != 2 || c.OverloadBursts != 2 {
		t.Fatalf("storms/bursts did not all fire: %s", c)
	}
}

func TestAggregateCounter(t *testing.T) {
	plan := &Plan{Name: "t", Seed: 6, Net: NetFaults{ErrorRate: 1}, Counter: &AtomicCounts{}}
	for run := 0; run < 3; run++ {
		in := NewInjector(plan, int64(run))
		in.FetchFault("https://x.example/a")
	}
	if got := plan.Counter.Snapshot().NetErrors; got != 3 {
		t.Fatalf("aggregate NetErrors = %d, want 3", got)
	}
}
