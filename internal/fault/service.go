package fault

import (
	"fmt"
	"sync/atomic"
)

// Service-layer fault injection: the chaos vocabulary for internal/serve.
//
// The kernel-facing Injector perturbs a single deterministic simulation
// from the inside (network faults, worker crashes, policy panics). The
// service injector perturbs the *boundary around* many simulations: the
// HTTP clients that feed the daemon and the environments that serve
// them. Its faults model what production traffic actually does to
// a service — clients that vanish mid-request, clients that trickle
// bodies byte by byte, clients that send garbage, and requests that
// poison the environment evaluating them.
//
// Decisions are keyed purely by (plan seed, run seed, request index)
// through the same splitmix64 derivation the kernel injector uses — no
// shared RNG stream — so concurrent chaos clients get reproducible
// fault placement regardless of goroutine arrival order.

// ServiceFaults is the rate card of one service-layer fault scenario.
type ServiceFaults struct {
	// DisconnectRate is the probability a client abandons its request
	// mid-flight (context cancellation after send). The server must
	// answer every surviving request correctly and discard the
	// abandoned run without returning a partial verdict.
	DisconnectRate float64
	// StallRate is the probability a client delivers its request body
	// slowly (slow-loris). The server's read bound must cut it off
	// without affecting neighbors.
	StallRate float64
	// MalformedRate is the probability a client sends syntactically
	// broken JSON. Always a typed bad_request, never a crash.
	MalformedRate float64
	// EnvPanicRate is the probability a request's evaluation panics
	// mid-simulation, poisoning its environment. The worker must drop
	// the evaluation's environments with it and answer with a typed,
	// retryable error; neighbors keep their verdicts.
	EnvPanicRate float64
	// ScrapeRate is the probability a client scrapes /metricsz
	// concurrently with its evaluation traffic. The scrape must return a
	// complete exposition that passes the self-check parser — including
	// during a SIGTERM drain — and must never block or perturb an
	// evaluation.
	ScrapeRate float64
	// SlowEventsRate is the probability a client subscribes to
	// /v1/events and consumes it slowly. A lagging subscriber must never
	// apply backpressure to the flusher or to eval workers; it falls
	// behind the replay ring and receives an explicit gap event.
	SlowEventsRate float64
}

// ServicePlan is one named service-layer chaos scenario.
type ServicePlan struct {
	Name    string
	Seed    int64
	Service ServiceFaults
}

// String names the plan.
func (p *ServicePlan) String() string { return p.Name }

// ServiceFault is the per-request fault decision.
type ServiceFault int

// Service fault kinds, in cumulative-draw order.
const (
	ServiceNone ServiceFault = iota
	ServiceDisconnect
	ServiceStall
	ServiceMalformed
	ServiceEnvPanic
	ServiceScrape
	ServiceSlowEvents
)

// String names the fault kind.
func (f ServiceFault) String() string {
	switch f {
	case ServiceNone:
		return "none"
	case ServiceDisconnect:
		return "disconnect"
	case ServiceStall:
		return "stall"
	case ServiceMalformed:
		return "malformed"
	case ServiceEnvPanic:
		return "env-panic"
	case ServiceScrape:
		return "scrape"
	case ServiceSlowEvents:
		return "slow-events"
	default:
		return fmt.Sprintf("servicefault(%d)", int(f))
	}
}

// ServiceCounts reports how many faults a service injector delivered.
// Chaos runs print them so "no wrong verdicts" is never mistaken for
// "no faults fired".
type ServiceCounts struct {
	Disconnects uint64
	Stalls      uint64
	Malformed   uint64
	EnvPanics   uint64
	Scrapes     uint64
	SlowEvents  uint64
}

// Total sums every category.
func (c ServiceCounts) Total() uint64 {
	return c.Disconnects + c.Stalls + c.Malformed + c.EnvPanics + c.Scrapes + c.SlowEvents
}

// String formats the counts for reports.
func (c ServiceCounts) String() string {
	return fmt.Sprintf("disconnect=%d stall=%d malformed=%d envpanic=%d scrape=%d slowevents=%d",
		c.Disconnects, c.Stalls, c.Malformed, c.EnvPanics, c.Scrapes, c.SlowEvents)
}

// ServiceInjector realises one service plan against one chaos run. It
// is safe for concurrent use: Decide is a pure function of the request
// index, and counting is atomic.
type ServiceInjector struct {
	plan    *ServicePlan
	runSeed int64

	disconnects atomic.Uint64
	stalls      atomic.Uint64
	malformed   atomic.Uint64
	envPanics   atomic.Uint64
	scrapes     atomic.Uint64
	slowEvents  atomic.Uint64
}

// NewServiceInjector builds an injector for one chaos run. runSeed
// decorrelates repetitions of the same plan, exactly as it does for the
// kernel injector.
func NewServiceInjector(p *ServicePlan, runSeed int64) *ServiceInjector {
	return &ServiceInjector{plan: p, runSeed: runSeed}
}

// Plan returns the plan this injector realises.
func (in *ServiceInjector) Plan() *ServicePlan { return in.plan }

// Decide returns the fault assigned to request requestIndex and counts
// it. The decision depends only on (plan seed, run seed, index): two
// chaos runs with the same inputs fault the same requests, however the
// client goroutines interleave.
func (in *ServiceInjector) Decide(requestIndex int) ServiceFault {
	f := in.Peek(requestIndex)
	switch f {
	case ServiceDisconnect:
		in.disconnects.Add(1)
	case ServiceStall:
		in.stalls.Add(1)
	case ServiceMalformed:
		in.malformed.Add(1)
	case ServiceEnvPanic:
		in.envPanics.Add(1)
	case ServiceScrape:
		in.scrapes.Add(1)
	case ServiceSlowEvents:
		in.slowEvents.Add(1)
	}
	return f
}

// Peek is Decide without the count — for tests that want to predict a
// run's fault placement.
func (in *ServiceInjector) Peek(requestIndex int) ServiceFault {
	z := finalize(uint64(in.plan.Seed)*0x9E3779B97F4A7C15 ^ uint64(in.runSeed) + uint64(requestIndex)*0xBF58476D1CE4E5B9)
	draw := float64(z>>11) / float64(uint64(1)<<53)
	s := in.plan.Service
	cum := s.DisconnectRate
	if draw < cum {
		return ServiceDisconnect
	}
	cum += s.StallRate
	if draw < cum {
		return ServiceStall
	}
	cum += s.MalformedRate
	if draw < cum {
		return ServiceMalformed
	}
	cum += s.EnvPanicRate
	if draw < cum {
		return ServiceEnvPanic
	}
	cum += s.ScrapeRate
	if draw < cum {
		return ServiceScrape
	}
	cum += s.SlowEventsRate
	if draw < cum {
		return ServiceSlowEvents
	}
	return ServiceNone
}

// Counts snapshots the delivered-fault aggregate.
func (in *ServiceInjector) Counts() ServiceCounts {
	return ServiceCounts{
		Disconnects: in.disconnects.Load(),
		Stalls:      in.stalls.Load(),
		Malformed:   in.malformed.Load(),
		EnvPanics:   in.envPanics.Load(),
		Scrapes:     in.scrapes.Load(),
		SlowEvents:  in.slowEvents.Load(),
	}
}

// ServicePlans returns the standard service-layer chaos scenarios, one
// per fault family plus the kitchen-sink mix the chaos harness runs by
// default.
func ServicePlans() []*ServicePlan {
	return []*ServicePlan{
		{Name: "svc-disconnect", Seed: 0x5EB1, Service: ServiceFaults{DisconnectRate: 0.25}},
		{Name: "svc-slowloris", Seed: 0x5EB2, Service: ServiceFaults{StallRate: 0.25}},
		{Name: "svc-malformed", Seed: 0x5EB3, Service: ServiceFaults{MalformedRate: 0.25}},
		{Name: "svc-envpanic", Seed: 0x5EB4, Service: ServiceFaults{EnvPanicRate: 0.25}},
		{Name: "svc-mixed", Seed: 0x5EB5, Service: ServiceFaults{
			DisconnectRate: 0.10, StallRate: 0.10, MalformedRate: 0.10, EnvPanicRate: 0.10,
		}},
		{Name: "svc-telemetry", Seed: 0x5EB6, Service: ServiceFaults{
			DisconnectRate: 0.05, EnvPanicRate: 0.05, ScrapeRate: 0.20, SlowEventsRate: 0.15,
		}},
	}
}

// ServicePlanByName resolves a plan from ServicePlans.
func ServicePlanByName(name string) (*ServicePlan, error) {
	for _, p := range ServicePlans() {
		if p.Name == name {
			return p, nil
		}
	}
	return nil, fmt.Errorf("fault: unknown service plan %q", name)
}
