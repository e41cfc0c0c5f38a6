package kernel

import (
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// envTestPolicy is a minimal allow-everything Policy; the internal/policy
// package cannot be imported here (it depends on kernel).
type envTestPolicy struct{}

func (envTestPolicy) Name() string        { return "env-test" }
func (envTestPolicy) Deterministic() bool { return true }
func (envTestPolicy) Quantum() sim.Duration {
	return sim.Millisecond
}
func (envTestPolicy) PredictDelay(api string, requested sim.Duration) sim.Duration {
	return DefaultPredictDelay(api, requested, sim.Millisecond, 0)
}
func (envTestPolicy) Evaluate(ctx CallContext) Verdict { return Allow }

// TestEnvironmentIsolation pins the property the parallel experiment
// runner depends on: every environment build owns its own Shared, so
// run-scoped mutable state — the fault hook, the trace binding — never
// leaks between concurrently-evaluated cells.
func TestEnvironmentIsolation(t *testing.T) {
	a := NewShared(envTestPolicy{})
	b := NewShared(envTestPolicy{})
	if a == b {
		t.Fatal("two NewShared calls returned the same Shared")
	}

	a.SetCallbackFault(func(string) bool { return true })
	a.SetTracer(trace.NewSession())
	if b.callbackFault != nil {
		t.Fatal("a's callback fault hook leaked into b")
	}
	if b.Tracer() != nil || b.TraceRun() != 0 {
		t.Fatal("a's trace binding leaked into b")
	}
	if a.callbackFault == nil || a.Tracer() == nil {
		t.Fatal("a's fault hook or trace binding was not stored on its Shared")
	}
}

// TestEnvironmentTraceRuns checks that two environments bound to one
// session draw distinct run generations, so their records never share a
// (run, thread) timeline in the merged stream.
func TestEnvironmentTraceRuns(t *testing.T) {
	s := trace.NewSession()
	a := NewShared(envTestPolicy{})
	b := NewShared(envTestPolicy{})
	a.SetTracer(s)
	b.SetTracer(s)
	if a.TraceRun() == b.TraceRun() {
		t.Fatalf("both environments drew trace run %d", a.TraceRun())
	}
	if a.Tracer() != s || b.Tracer() != s {
		t.Fatal("tracer binding not stored on the Shared")
	}
}

// TestEnvironmentDefaults pins the NewShared starting state.
func TestEnvironmentDefaults(t *testing.T) {
	e := NewShared(envTestPolicy{})
	if e.callbackFault != nil {
		t.Fatal("fresh Shared already has a fault hook")
	}
	if e.Tracer() != nil || e.TraceRun() != 0 {
		t.Fatal("fresh Shared already has a trace binding")
	}
}
