// Package fault is the deterministic fault-injection subsystem: a seeded
// fault plan describes failures at every layer of the stack — network
// (transient errors, truncated transfers, latency spikes), browser
// (worker crashes mid-message, fetch-abort races, event-cancellation
// storms, event-loop overload bursts) and kernel-facing (user callbacks
// that panic, policies whose Evaluate panics) — and an Injector realises
// the plan against one environment.
//
// Determinism is the design invariant: every random draw comes from
// fixed-seed streams derived from (plan seed, run seed), one stream per
// fault site, so a run is a pure function of (defense, workload,
// fault plan, seed). Re-running the same tuple reproduces the same
// faults at the same points, byte for byte (see determinism_test.go).
//
// The package sits below internal/defense: it imports only the browser,
// webnet, kernel and sim layers, and exposes hooks those layers already
// accept (webnet.FaultInjector, browser.FaultHooks, the kernel's
// callback-fault hook and a Policy wrapper). internal/defense wires an
// Injector into a fresh environment; internal/expr's chaos matrix then
// asserts that no fault plan can flip a security verdict.
package fault

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"jskernel/internal/browser"
	"jskernel/internal/kernel"
	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

// NetFaults describes network-layer failures injected into webnet.Net.
type NetFaults struct {
	// ErrorRate is the probability that a non-cached fetch fails with a
	// transient (retryable) error.
	ErrorRate float64
	// ExemptURLs lists URLs the injector never faults (errors or
	// spikes). Chaos plans exempt the timing attacks' measurement
	// resources: faulting the attacker's own probe trivially destroys
	// the timing channel on every browser, which tests noise injection
	// rather than defense survival — the masked-verdict false positive.
	ExemptURLs []string
	// ErrorStatus is the HTTP status carried by injected failures
	// (default 503).
	ErrorStatus int
	// TruncateFrac is the fraction of the transfer completed before an
	// injected failure cuts it off (0 fails immediately, 0.9 fails at
	// nine-tenths of the latency).
	TruncateFrac float64
	// SpikeRate is the probability that a successful fetch suffers a
	// latency spike.
	SpikeRate float64
	// SpikeScaleMin/Max bound the latency multiplier for spikes.
	SpikeScaleMin float64
	SpikeScaleMax float64
}

// BrowserFaults describes native-layer failures injected into the
// browser.
type BrowserFaults struct {
	// WorkerCrashRate is the probability that a main→worker message
	// delivery crashes the worker mid-message (message lost, pending
	// fetches stranded — the kernel watchdog's job to reap).
	WorkerCrashRate float64
	// FetchAbortRate is the probability that a completing fetch is
	// aborted at the exact completion instant — the abort/completion
	// race.
	FetchAbortRate float64
	// CancelStorms is how many event-cancellation bursts to arm on the
	// main thread; each burst creates and immediately clears
	// CancelStormSize timers through the (possibly kernelized) bindings.
	CancelStorms int
	// CancelStormSize is the number of timers per storm (default 32).
	CancelStormSize int
	// OverloadBursts is how many synchronous busy bursts to arm on the
	// main thread, stalling the event loop for OverloadBusy each.
	OverloadBursts int
	// OverloadBusy is the virtual-time cost of one burst (default 5ms).
	OverloadBusy sim.Duration
}

// KernelFaults describes kernel-facing failures.
type KernelFaults struct {
	// CallbackPanicRate is the probability that a dispatched user
	// callback panics (exercising the kernel's panic isolation).
	CallbackPanicRate float64
	// PolicyPanicRate is the probability that a policy Evaluate call
	// panics (exercising the kernel's fail-closed recovery).
	PolicyPanicRate float64
}

// Plan is one complete, named fault scenario. Plans are plain data so
// experiments can enumerate, print and reproduce them.
type Plan struct {
	Name string
	// Seed keys every random stream the plan's injectors draw from,
	// mixed with the run seed (see NewInjector).
	Seed    int64
	Net     NetFaults
	Browser BrowserFaults
	Kernel  KernelFaults
	// Counter, when non-nil, aggregates fault counts across every
	// injector built from this plan (chaos runs span many short-lived
	// environments; the aggregate proves faults actually fired).
	Counter *AtomicCounts
}

// String names the plan.
func (p *Plan) String() string { return p.Name }

// Counts reports how many faults an Injector actually delivered, per
// category. Experiments print them so "zero verdict flips" is never
// mistaken for "zero faults injected".
type Counts struct {
	NetErrors      uint64
	LatencySpikes  uint64
	WorkerCrashes  uint64
	FetchAborts    uint64
	CancelStorms   uint64
	OverloadBursts uint64
	CallbackPanics uint64
	PolicyPanics   uint64
}

// Total sums every category.
func (c Counts) Total() uint64 {
	return c.NetErrors + c.LatencySpikes + c.WorkerCrashes + c.FetchAborts +
		c.CancelStorms + c.OverloadBursts + c.CallbackPanics + c.PolicyPanics
}

// String formats the counts for reports.
func (c Counts) String() string {
	return fmt.Sprintf("net=%d spike=%d crash=%d abort=%d storm=%d burst=%d cbpanic=%d polpanic=%d",
		c.NetErrors, c.LatencySpikes, c.WorkerCrashes, c.FetchAborts,
		c.CancelStorms, c.OverloadBursts, c.CallbackPanics, c.PolicyPanics)
}

// Fault-category indexes into AtomicCounts.
const (
	cNet = iota
	cSpike
	cCrash
	cAbort
	cStorm
	cBurst
	cCbPanic
	cPolPanic
	nCategories
)

// AtomicCounts is a race-safe fault-count aggregate. Attach one to a
// Plan (Plan.Counter) and every injector built from that plan tees its
// counts in, so a chaos run spanning hundreds of short-lived
// environments can still prove its faults fired.
type AtomicCounts struct {
	c [nCategories]uint64
}

func (a *AtomicCounts) add(i int) { atomic.AddUint64(&a.c[i], 1) }

// Snapshot returns a plain copy of the aggregate.
func (a *AtomicCounts) Snapshot() Counts {
	var s [nCategories]uint64
	for i := range s {
		s[i] = atomic.LoadUint64(&a.c[i])
	}
	return Counts{
		NetErrors:      s[cNet],
		LatencySpikes:  s[cSpike],
		WorkerCrashes:  s[cCrash],
		FetchAborts:    s[cAbort],
		CancelStorms:   s[cStorm],
		OverloadBursts: s[cBurst],
		CallbackPanics: s[cCbPanic],
		PolicyPanics:   s[cPolPanic],
	}
}

// Injector realises one plan against one environment. Each fault site
// owns a private seeded stream so draws at one layer never perturb
// another layer's sequence — the property that keeps fault placement
// reproducible when layers interleave differently across defenses.
type Injector struct {
	plan   *Plan
	counts Counts

	netRNG      *rand.Rand // FetchFault draws
	workerRNG   *rand.Rand // WorkerDelivery draws
	abortRNG    *rand.Rand // FetchDone draws
	callbackRNG *rand.Rand // CallbackPanic draws
	policyRNG   *rand.Rand // WrapPolicy draws
}

// finalize is the splitmix64 finalizer: a bijective scramble that turns
// structured seed material into well-distributed stream seeds.
func finalize(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return z
}

// mix derives a per-stream seed from the plan seed, the run seed, a
// caller salt and a stream tag.
func mix(planSeed, runSeed int64, salt, tag uint64) int64 {
	z := uint64(planSeed)*0x9E3779B97F4A7C15 ^ uint64(runSeed) + tag*0xBF58476D1CE4E5B9
	return int64(finalize(z ^ salt))
}

// hashString folds a string into seed material (FNV-1a).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// NewInjector builds an injector for one run. runSeed is the
// environment seed, so different reps of the same plan see different —
// but individually reproducible — fault placements. Optional salt
// strings (e.g. the defense ID) decorrelate streams between runs that
// share a seed: experiment matrices reuse the same seeds across every
// cell, and without a salt every cell would see identical draws.
func NewInjector(p *Plan, runSeed int64, salt ...string) *Injector {
	var sh uint64
	for _, s := range salt {
		sh = finalize(sh ^ hashString(s))
	}
	return &Injector{
		plan:        p,
		netRNG:      rand.New(rand.NewSource(mix(p.Seed, runSeed, sh, 1))),
		workerRNG:   rand.New(rand.NewSource(mix(p.Seed, runSeed, sh, 2))),
		abortRNG:    rand.New(rand.NewSource(mix(p.Seed, runSeed, sh, 3))),
		callbackRNG: rand.New(rand.NewSource(mix(p.Seed, runSeed, sh, 4))),
		policyRNG:   rand.New(rand.NewSource(mix(p.Seed, runSeed, sh, 5))),
	}
}

// Plan returns the plan this injector realises.
func (in *Injector) Plan() *Plan { return in.plan }

// bump records one delivered fault locally and in the plan's shared
// aggregate, if attached.
func (in *Injector) bump(field *uint64, category int) {
	*field++
	if c := in.plan.Counter; c != nil {
		c.add(category)
	}
}

// Counts returns a snapshot of the faults delivered so far.
func (in *Injector) Counts() Counts { return in.counts }

// urlJitter folds a URL into a uniform offset so two URLs sharing one
// stream position still make independent fault decisions.
func urlJitter(url string) float64 {
	return float64(hashString(url)>>11) / (1 << 53)
}

// draw01 is a uniform draw decorrelated by the URL: the stream supplies
// sequence entropy, the URL supplies position entropy.
func draw01(rng *rand.Rand, url string) float64 {
	v := rng.Float64() + urlJitter(url)
	if v >= 1 {
		v--
	}
	return v
}

// FetchFault implements webnet.FaultInjector: transient errors with
// optional truncation, or latency spikes, per the plan's NetFaults.
func (in *Injector) FetchFault(url string) webnet.FaultDecision {
	nf := in.plan.Net
	for _, ex := range nf.ExemptURLs {
		if ex == url {
			return webnet.FaultDecision{}
		}
	}
	if nf.ErrorRate > 0 && draw01(in.netRNG, url) < nf.ErrorRate {
		status := nf.ErrorStatus
		if status == 0 {
			status = 503
		}
		in.bump(&in.counts.NetErrors, cNet)
		return webnet.FaultDecision{
			Err:          &webnet.TransientError{URL: url, Status: status, Reason: "injected transient fault"},
			TruncateFrac: nf.TruncateFrac,
		}
	}
	if nf.SpikeRate > 0 && draw01(in.netRNG, url) < nf.SpikeRate {
		lo, hi := nf.SpikeScaleMin, nf.SpikeScaleMax
		if lo <= 0 {
			lo = 2
		}
		if hi < lo {
			hi = lo
		}
		in.bump(&in.counts.LatencySpikes, cSpike)
		return webnet.FaultDecision{LatencyScale: lo + in.netRNG.Float64()*(hi-lo)}
	}
	return webnet.FaultDecision{}
}

// BrowserHooks returns the native-layer hooks (worker crashes and
// fetch-abort races) for browser.SetFaultHooks, or nil when the plan
// injects neither.
func (in *Injector) BrowserHooks() *browser.FaultHooks {
	bf := in.plan.Browser
	if bf.WorkerCrashRate <= 0 && bf.FetchAbortRate <= 0 {
		return nil
	}
	return &browser.FaultHooks{
		WorkerDelivery: func(workerID int) bool {
			if bf.WorkerCrashRate > 0 && in.workerRNG.Float64() < bf.WorkerCrashRate {
				in.bump(&in.counts.WorkerCrashes, cCrash)
				return true
			}
			return false
		},
		FetchDone: func(url string) bool {
			if bf.FetchAbortRate > 0 && in.abortRNG.Float64() < bf.FetchAbortRate {
				in.bump(&in.counts.FetchAborts, cAbort)
				return true
			}
			return false
		},
	}
}

// CallbackPanic is the kernel's callback-fault hook
// (kernel.Shared.SetCallbackFault): returning true makes the dispatch
// panic inside the user callback.
func (in *Injector) CallbackPanic(api string) bool {
	rate := in.plan.Kernel.CallbackPanicRate
	if rate > 0 && in.callbackRNG.Float64() < rate {
		in.bump(&in.counts.CallbackPanics, cCbPanic)
		return true
	}
	return false
}

// WrapPolicy wraps a kernel policy so Evaluate panics with the plan's
// PolicyPanicRate. The kernel recovers each panic and fails closed;
// wrapping is a no-op when the rate is zero.
func (in *Injector) WrapPolicy(p kernel.Policy) kernel.Policy {
	if in.plan.Kernel.PolicyPanicRate <= 0 {
		return p
	}
	return &panickyPolicy{Policy: p, in: in}
}

type panickyPolicy struct {
	kernel.Policy
	in *Injector
}

func (p *panickyPolicy) Evaluate(ctx kernel.CallContext) kernel.Verdict {
	if p.in.policyRNG.Float64() < p.in.plan.Kernel.PolicyPanicRate {
		p.in.bump(&p.in.counts.PolicyPanics, cPolPanic)
		panic(fmt.Sprintf("fault: injected policy panic on %s", ctx.API))
	}
	return p.Policy.Evaluate(ctx)
}

// Arm schedules the plan's time-based faults — event-cancellation
// storms and event-loop overload bursts — on the browser's main thread
// at fixed virtual times. The storm timers go through the scope's
// bindings table, so a kernelized page absorbs them in its kernel
// queue, exactly the churn the overload shedding and dispatcher must
// survive.
func (in *Injector) Arm(b *browser.Browser) {
	bf := in.plan.Browser
	stormSize := bf.CancelStormSize
	if stormSize <= 0 {
		stormSize = 32
	}
	busy := bf.OverloadBusy
	if busy <= 0 {
		busy = 5 * sim.Millisecond
	}
	for i := 0; i < bf.CancelStorms; i++ {
		at := sim.Time(200*sim.Millisecond) + sim.Time(i)*sim.Time(500*sim.Millisecond)
		b.Main().PostTask(at, func(g *browser.Global) {
			in.bump(&in.counts.CancelStorms, cStorm)
			for j := 0; j < stormSize; j++ {
				id := g.SetTimeout(func(*browser.Global) {}, sim.Duration(1+j)*sim.Millisecond)
				g.ClearTimeout(id)
			}
		})
	}
	for i := 0; i < bf.OverloadBursts; i++ {
		at := sim.Time(300*sim.Millisecond) + sim.Time(i)*sim.Time(700*sim.Millisecond)
		b.Main().PostTask(at, func(g *browser.Global) {
			in.bump(&in.counts.OverloadBursts, cBurst)
			g.Busy(busy)
		})
	}
}

// measurementURLs are the timing attacks' probe resources, exempted
// from network faults in every standard plan (see NetFaults.ExemptURLs).
func measurementURLs() []string {
	return []string{
		"https://cdn.shared.example/lib/common.js", // cache attack
		"https://social.example/friends.json",      // script parsing
		"https://social.example/avatar.png",        // image decoding
		"https://social.example/payload.bin",       // rAF payload
		"https://social.example/payload2.bin",      // rAF payload
	}
}

// StandardPlans returns the seeded fault scenarios the chaos matrix
// runs: a degraded network, an unreliable worker pool, and a hostile
// page hammering the kernel itself. Rates are deliberately aggressive
// enough to fire on every workload yet bounded so fault noise cannot
// drown the signal the attacks need — the chaos experiment asserts
// verdicts are identical with and without each plan.
func StandardPlans() []*Plan {
	return []*Plan{
		{
			Name: "flaky-net",
			Seed: 101,
			Net: NetFaults{
				ErrorRate:     0.06,
				ErrorStatus:   503,
				TruncateFrac:  0.5,
				SpikeRate:     0.08,
				SpikeScaleMin: 1.5,
				SpikeScaleMax: 2.5,
				ExemptURLs:    measurementURLs(),
			},
		},
		{
			Name: "crashy-workers",
			Seed: 333,
			Net: NetFaults{
				ErrorRate:   0.05,
				ErrorStatus: 502,
				ExemptURLs:  measurementURLs(),
			},
			Browser: BrowserFaults{
				WorkerCrashRate: 0.04,
				FetchAbortRate:  0.05,
			},
		},
		{
			Name: "hostile-page",
			Seed: 303,
			// Storm sizes are deliberately modest: a storm cancels queued
			// events, and cancelling ~40 at once opens multi-millisecond
			// event-loop gaps that the Loopscan attack reads directly —
			// flipping marginal noise-defense verdicts (Fuzzyfox) at quick
			// scale. That is the harness perturbing the measurement, not a
			// defense weakening, so the plan stays below that regime.
			Browser: BrowserFaults{
				CancelStorms:    2,
				CancelStormSize: 10,
				OverloadBursts:  2,
				OverloadBusy:    5 * sim.Millisecond,
			},
			Kernel: KernelFaults{
				CallbackPanicRate: 0.02,
				PolicyPanicRate:   0.01,
			},
		},
	}
}
