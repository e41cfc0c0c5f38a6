// Package defense configures the seven browser defenses the paper
// evaluates side by side (Tables I–III, Figures 2–3): the three legacy
// browsers, Fuzzyfox, DeterFox, Tor Browser, Chrome Zero, and JSKernel.
//
// Each Defense value knows how to build a ready-to-use environment — a
// simulator, a configured browser, and an armed vulnerability registry —
// so experiments can run any (attack, defense) pair uniformly.
package defense

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/fault"
	"jskernel/internal/kernel"
	"jskernel/internal/policy"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
	"jskernel/internal/webnet"
)

// Kind enumerates the defense mechanisms.
type Kind int

// Defense mechanisms.
const (
	KindLegacy Kind = iota + 1
	KindFuzzyfox
	KindDeterFox
	KindTorBrowser
	KindChromeZero
	KindJSKernel
)

// Defense is one evaluated configuration.
type Defense struct {
	// ID is a stable machine-readable identifier ("jskernel-chrome").
	ID string
	// Label is the column header used in tables ("JSKernel (C)").
	Label string
	// Base names the underlying browser profile.
	Base string
	// Kind selects the mechanism.
	Kind Kind
	// Policy overrides the kernel policy for KindJSKernel defenses (nil
	// means the full defense policy). Ablation studies use it to sweep
	// scheduling parameters and rule subsets.
	Policy kernel.Policy
	// FaultPlan, when non-nil, injects the plan's deterministic faults
	// into every environment this defense builds (chaos experiments).
	FaultPlan *fault.Plan
	// Tracer, when non-nil, receives the kernel lifecycle trace of every
	// environment this defense builds: kernel defenses attach it before
	// scope installation, and native browser events are bridged in as
	// OpNative records. Attack evaluators construct environments
	// internally, so the session rides on the defense the same way fault
	// plans do.
	Tracer *trace.Session
	// Obs enables the browser's observability trace kinds (callback
	// entries, clock reads) in every environment this defense builds.
	// Only meaningful with a Tracer attached: the events travel the
	// OpNative bridge into the session, where internal/obs consumers
	// reconstruct measurement harnesses and attack signatures from them.
	Obs bool
	// Runtime, when non-nil, binds per-request service-layer machinery
	// (a pooled kernel.Environment, a cooperative-cancellation hook) into
	// every environment this defense builds. Attack evaluators construct
	// environments internally, so — like FaultPlan and Tracer — the
	// binding rides on the defense value.
	Runtime *Runtime
}

// Runtime is the service layer's per-request binding into environment
// construction. jsk-serve sets one per admitted request; batch
// experiments leave it nil.
type Runtime struct {
	// Env, when non-nil, is reused (reset, not rebuilt) as the kernel
	// Environment of every kernel-based environment this defense builds.
	// The Reset contract keeps runs byte-identical to fresh-environment
	// runs; non-kernel defenses ignore it. The owner must build
	// environments sequentially — a pooled Environment serves one
	// simulation at a time.
	Env *kernel.Environment
	// Canceled, when non-nil, is polled by the simulator between event
	// dispatches; returning true abandons the run with sim.ErrCanceled.
	// Callers must then surface a typed cancellation error, never any
	// partial verdict.
	Canceled func() bool

	// stopped latches the first true result of a Canceled poll.
	stopped bool
}

// poll is the simulator's cancellation hook: it runs Canceled once and
// latches a true result.
func (rt *Runtime) poll() bool {
	if rt.Canceled() {
		rt.stopped = true
		return true
	}
	return false
}

// Stopped reports whether a simulator has seen Canceled return true, so
// that a caller building one environment after another can stop without
// polling again. It is false on a nil Runtime.
func (rt *Runtime) Stopped() bool {
	return rt != nil && rt.stopped
}

// WithFaults returns a copy of the defense that builds every
// environment under the given fault plan (nil clears it).
func (d Defense) WithFaults(p *fault.Plan) Defense {
	d.FaultPlan = p
	return d
}

// WithTracer returns a copy of the defense whose environments feed the
// given trace session (nil clears it).
func (d Defense) WithTracer(t *trace.Session) Defense {
	d.Tracer = t
	return d
}

// WithObs returns a copy of the defense with observability events
// enabled or disabled.
func (d Defense) WithObs(obs bool) Defense {
	d.Obs = obs
	return d
}

// WithRuntime returns a copy of the defense carrying a service-layer
// runtime binding (nil clears it).
func (d Defense) WithRuntime(rt *Runtime) Defense {
	d.Runtime = rt
	return d
}

// traceBridge forwards native-layer browser trace events into the
// kernel trace session as OpNative records, so one trace shows the
// end-to-end story. Native events may carry in-task cursor timestamps,
// which is why OpNative is exempt from the validator's per-thread
// monotonicity invariant.
type traceBridge struct {
	s   *trace.Session
	run int
}

func (tb traceBridge) Trace(ev browser.TraceEvent) {
	if ev.Kind == browser.TraceAccess {
		// Shared-target accesses become first-class OpAccess records so
		// the hb analysis (and jsk-race) can consume them without parsing
		// native-event details: API carries the target class, Value the
		// target ID, Action the read/write(+guardian) encoding.
		action := "r"
		if ev.Aux&browser.AccessWrite != 0 {
			action = "w"
		}
		if ev.Aux&browser.AccessGuardian != 0 {
			action += "g"
		}
		tb.s.Emit(trace.Record{
			Run:      tb.run,
			VT:       ev.At,
			Thread:   ev.ThreadID,
			WorkerID: ev.WorkerID,
			Op:       trace.OpAccess,
			API:      ev.Detail,
			Action:   action,
			Value:    ev.Value,
			Aux:      ev.Aux,
		})
		return
	}
	tb.s.Emit(trace.Record{
		Run:      tb.run,
		VT:       ev.At,
		Thread:   ev.ThreadID,
		WorkerID: ev.WorkerID,
		Op:       trace.OpNative,
		API:      ev.Kind.String(),
		Reason:   ev.Detail,
		URL:      ev.URL,
		Value:    ev.Value,
		Aux:      ev.Aux,
	})
}

// EnvOptions tunes environment construction.
type EnvOptions struct {
	Seed        int64
	PrivateMode bool
	// NetConfig overrides the default network model when non-nil.
	NetConfig *webnet.Config
	// MaxSteps bounds the simulation (default 20M).
	MaxSteps uint64
	// Chooser, when non-nil, is installed as the simulator's scheduler
	// tie-break hook before any event is scheduled, so schedule
	// exploration steers the whole run (see sim.Chooser).
	Chooser sim.Chooser
	// Unarmed builds the environment with every CVE detector disarmed:
	// execution is byte-identical but nothing is marked exploited.
	Unarmed bool
}

// Env is a ready-to-run environment: one browser under one defense.
type Env struct {
	Defense  Defense
	Sim      *sim.Simulator
	Browser  *browser.Browser
	Registry *vuln.Registry
	// Kernel is non-nil for kernel-based defenses (JSKernel, DeterFox).
	Kernel *kernel.Shared
	// Faults is non-nil when the defense carries a fault plan; it
	// reports the faults actually injected into this environment.
	Faults *fault.Injector
	// Trace is the defense's trace session, when one is attached.
	Trace *trace.Session
}

// NewEnv builds an environment for this defense.
func (d Defense) NewEnv(opts EnvOptions) *Env {
	s := sim.New(opts.Seed)
	if opts.Chooser != nil {
		s.SetChooser(opts.Chooser)
	}
	if opts.MaxSteps == 0 {
		opts.MaxSteps = 20_000_000
	}
	s.MaxSteps = opts.MaxSteps
	if d.Runtime != nil && d.Runtime.Canceled != nil {
		s.SetCanceled(d.Runtime.poll)
	}

	cfg := webnet.DefaultConfig()
	if opts.NetConfig != nil {
		cfg = *opts.NetConfig
	}
	if d.Kind == KindTorBrowser {
		// Tor routes traffic through a three-hop circuit: latency and
		// bandwidth degrade, which dominates its Figure 3 curve.
		cfg.RTT *= 4
		cfg.BytesPerSec /= 3
		cfg.JitterFrac *= 3
	}
	net := webnet.New(cfg, s.Rand())
	reg := vuln.NewRegistry()
	if opts.Unarmed {
		reg = vuln.NewUnarmedRegistry()
	}

	var inj *fault.Injector
	if d.FaultPlan != nil {
		inj = fault.NewInjector(d.FaultPlan, opts.Seed, d.ID)
		net.SetFaultInjector(inj)
	}

	bopts := browser.Options{
		Profile:     browser.ProfileByName(d.Base),
		Net:         net,
		PrivateMode: opts.PrivateMode,
		Tracer:      reg,
		ObsEvents:   d.Obs && d.Tracer != nil,
	}
	var shared *kernel.Shared
	// newShared takes the warm-pool path when the service layer bound a
	// reusable Environment to this defense.
	newShared := func(p kernel.Policy) *kernel.Shared {
		if d.Runtime != nil && d.Runtime.Env != nil {
			return kernel.NewSharedReusing(p, d.Runtime.Env)
		}
		return kernel.NewShared(p)
	}
	switch d.Kind {
	case KindLegacy:
		// Unmodified browser.
	case KindJSKernel:
		p := d.Policy
		if p == nil {
			p = policy.FullDefense()
		}
		if inj != nil {
			p = inj.WrapPolicy(p)
		}
		shared = newShared(p)
		shared.SetTracer(d.Tracer)
		bopts.InstallScope = shared.Install
	case KindDeterFox:
		// DeterFox applies the same deterministic scheduling discipline in
		// the browser source itself, stepping its deterministic clock at a
		// coarser per-frame granularity; it carries no CVE policies, so
		// the web-concurrency CVE rows stay exploitable.
		p := policy.Deterministic()
		p.PolicyName = "deterfox-determinism"
		p.QuantumMicros = 4000
		shared = newShared(p)
		shared.SetTracer(d.Tracer)
		bopts.InstallScope = shared.Install
	case KindFuzzyfox:
		bopts.InstallScope = fuzzyfoxInstall(s)
	case KindTorBrowser:
		bopts.InstallScope = torInstall
	case KindChromeZero:
		bopts.InstallScope = chromeZeroInstall(s)
	}

	if d.Tracer != nil {
		// The native bridge must be in the initial tracer chain so even
		// events fired while browser.New bootstraps the main thread land in
		// the session. Kernel defenses allocated this environment's run
		// generation in SetTracer above; environments without a kernel take
		// their own.
		run := 0
		if shared != nil {
			run = shared.TraceRun()
		} else {
			run = d.Tracer.NextRun()
		}
		bopts.Tracer = browser.Tee(reg, traceBridge{s: d.Tracer, run: run})
	}

	b := browser.New(s, bopts)
	b.Origin = "https://site.example"
	if inj != nil {
		if h := inj.BrowserHooks(); h != nil {
			b.SetFaultHooks(h)
		}
		if shared != nil {
			shared.SetCallbackFault(inj.CallbackPanic)
		}
		inj.Arm(b)
	}
	return &Env{Defense: d, Sim: s, Browser: b, Registry: reg, Kernel: shared, Faults: inj, Trace: d.Tracer}
}

// Catalog construction -------------------------------------------------

// Chrome, Firefox and Edge are the unmodified "Legacy Three".
func Chrome() Defense {
	return Defense{ID: "chrome", Label: "Chrome", Base: "chrome", Kind: KindLegacy}
}

// Firefox is the legacy Firefox profile.
func Firefox() Defense {
	return Defense{ID: "firefox", Label: "Firefox", Base: "firefox", Kind: KindLegacy}
}

// Edge is the legacy Edge profile.
func Edge() Defense {
	return Defense{ID: "edge", Label: "Edge", Base: "edge", Kind: KindLegacy}
}

// Fuzzyfox randomizes clocks and event pacing (Kohlbrenner & Shacham).
func Fuzzyfox() Defense {
	return Defense{ID: "fuzzyfox", Label: "Fuzzyfox", Base: "firefox", Kind: KindFuzzyfox}
}

// DeterFox enforces deterministic cross-origin timing in the browser
// source (Cao et al.); Firefox-only, no CVE policies.
func DeterFox() Defense {
	return Defense{ID: "deterfox", Label: "DeterFox", Base: "firefox", Kind: KindDeterFox}
}

// TorBrowser coarsens explicit clocks to 100ms.
func TorBrowser() Defense {
	return Defense{ID: "tor", Label: "Tor Browser", Base: "firefox", Kind: KindTorBrowser}
}

// ChromeZero redefines timing APIs with fuzz and replaces workers with a
// non-parallel polyfill (Schwarz et al.).
func ChromeZero() Defense {
	return Defense{ID: "chromezero", Label: "Chrome Zero", Base: "chrome", Kind: KindChromeZero}
}

// JSKernel is the paper's defense on a given base browser.
func JSKernel(base string) Defense {
	return Defense{
		ID:    "jskernel-" + base,
		Label: fmt.Sprintf("JSKernel (%s)", base),
		Base:  base,
		Kind:  KindJSKernel,
	}
}

// JSKernelWithPolicy is a JSKernel variant running a custom policy, for
// ablation studies and synthesized-policy evaluation.
func JSKernelWithPolicy(base, id string, p kernel.Policy) Defense {
	return Defense{
		ID:     id,
		Label:  fmt.Sprintf("JSKernel[%s]", id),
		Base:   base,
		Kind:   KindJSKernel,
		Policy: p,
	}
}

// TableIDefenses returns the seven columns of Table I in paper order:
// the Legacy Three (as one logical column each), Fuzzyfox, DeterFox,
// Tor Browser, Chrome Zero and JSKernel.
func TableIDefenses() []Defense {
	return []Defense{
		Chrome(), Firefox(), Edge(),
		Fuzzyfox(), DeterFox(), TorBrowser(), ChromeZero(),
		JSKernel("chrome"),
	}
}

// TableIIDefenses returns the seven rows of Table II in paper order.
func TableIIDefenses() []Defense {
	return []Defense{
		Chrome(), Firefox(), Edge(),
		Fuzzyfox(), TorBrowser(), ChromeZero(),
		JSKernel("chrome"),
	}
}

// Figure3Defenses returns the CDF series of Figure 3 in legend order.
func Figure3Defenses() []Defense {
	return []Defense{
		Chrome(), JSKernel("chrome"), ChromeZero(),
		Firefox(), JSKernel("firefox"),
		DeterFox(), TorBrowser(), Fuzzyfox(),
	}
}

// ByID resolves a defense from its identifier.
func ByID(id string) (Defense, error) {
	all := append(TableIDefenses(), JSKernel("firefox"), JSKernel("edge"))
	for _, d := range all {
		if d.ID == id {
			return d, nil
		}
	}
	return Defense{}, fmt.Errorf("defense: unknown id %q", id)
}
