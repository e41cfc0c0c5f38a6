package kernel

import (
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// TestEnvironmentReset dirties every field an environment accumulates
// during a run and checks Reset restores each one to the state
// NewEnvironment builds — the field-level half of the reuse contract.
// (The behavioral half — byte-identical cell output across reuse
// generations — is pinned in internal/defense and internal/serve.)
func TestEnvironmentReset(t *testing.T) {
	e := NewEnvironment()
	e.simNow = func() sim.Time { return 5 }
	e.callbackFault = func(string) bool { return true }
	e.setTracer(trace.NewSession())
	e.lastBufAccess = 99
	e.pendingFetch[3] = 2
	e.transferred[3] = true
	e.deferredTerm[3] = true

	e.Reset()

	if e.simNow != nil {
		t.Error("simNow survived reset")
	}
	if e.callbackFault != nil {
		t.Error("callbackFault survived reset")
	}
	if e.tracer != nil || e.traceRun != 0 {
		t.Error("tracer binding survived reset")
	}
	if e.lastBufAccess != 0 {
		t.Error("shared-buffer serialization point survived reset")
	}
	if len(e.pendingFetch) != 0 || len(e.transferred) != 0 || len(e.deferredTerm) != 0 {
		t.Error("worker handshake maps survived reset")
	}
}

// TestNewSharedReusing checks the pooling entry point: a reused
// environment is reset and rebound, and a nil environment degrades to
// the plain constructor.
func TestNewSharedReusing(t *testing.T) {
	env := NewEnvironment()
	env.lastBufAccess = 99
	env.pendingFetch[3] = 1

	s := NewSharedReusing(envTestPolicy{}, env)
	if s.env != env {
		t.Fatal("NewSharedReusing did not adopt the pooled environment")
	}
	if env.lastBufAccess != 0 || len(env.pendingFetch) != 0 {
		t.Error("pooled environment was adopted without a reset")
	}

	s2 := NewSharedReusing(envTestPolicy{}, nil)
	if s2.env == nil {
		t.Fatal("nil environment must fall back to a fresh one")
	}
}
