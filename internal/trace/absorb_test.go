package trace_test

import (
	"bytes"
	"reflect"
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/trace"
)

// tracePart runs one CVE scenario into a fresh, closed session — a
// realistic per-cell trace with installs, dispatches, policy verdicts
// and native records.
func tracePart(t *testing.T, d defense.Defense, seed int64) *trace.Session {
	t.Helper()
	s := trace.NewSession()
	attack.EvaluateCVE(attack.CVE20185092(), d.WithTracer(s), seed)
	s.Close()
	if s.Len() == 0 {
		t.Fatal("scenario emitted no records")
	}
	return s
}

// TestAbsorbMergesValidly merges two independent cell traces and checks
// the result still satisfies every kernel lifecycle invariant, with the
// counts adding up and runs/scopes disjoint.
func TestAbsorbMergesValidly(t *testing.T) {
	a := tracePart(t, defense.JSKernel("chrome"), 42)
	b := tracePart(t, defense.DeterFox(), 43)

	merged := trace.NewSession()
	if err := merged.Absorb(a); err != nil {
		t.Fatalf("absorb a: %v", err)
	}
	if err := merged.Absorb(b); err != nil {
		t.Fatalf("absorb b: %v", err)
	}
	merged.Close()

	rep, err := trace.Validate(merged.Records())
	if err != nil {
		t.Fatalf("merged trace fails validation: %v", err)
	}
	if merged.Len() != a.Len()+b.Len() {
		t.Fatalf("merged %d records, parts total %d", merged.Len(), a.Len()+b.Len())
	}
	ra, _ := trace.Validate(a.Records())
	rb, _ := trace.Validate(b.Records())
	if rep.Enqueued != ra.Enqueued+rb.Enqueued {
		t.Fatalf("enqueued %d, parts total %d", rep.Enqueued, ra.Enqueued+rb.Enqueued)
	}
	if rep.Scopes != ra.Scopes+rb.Scopes {
		t.Fatalf("scopes %d, parts total %d — scope remapping collided", rep.Scopes, ra.Scopes+rb.Scopes)
	}

	// Metrics must fold exactly, including the interposition totals,
	// which are counted outside records.
	ma, mb, mm := a.Metrics(), b.Metrics(), merged.Metrics()
	if mm.Dispatched != ma.Dispatched+mb.Dispatched {
		t.Fatalf("dispatched metric %d, parts total %d", mm.Dispatched, ma.Dispatched+mb.Dispatched)
	}
	if mm.InterposeCrossings != ma.InterposeCrossings+mb.InterposeCrossings {
		t.Fatalf("interpose crossings %d, parts total %d", mm.InterposeCrossings, ma.InterposeCrossings+mb.InterposeCrossings)
	}
	if mm.DispatchLatency.Total != ma.DispatchLatency.Total+mb.DispatchLatency.Total {
		t.Fatalf("latency samples %d, parts total %d", mm.DispatchLatency.Total, ma.DispatchLatency.Total+mb.DispatchLatency.Total)
	}
}

// TestAbsorbDeterministicOrder asserts the property the parallel runner
// depends on: absorbing identical parts in the same index order yields
// byte-identical merged traces, run to run.
func TestAbsorbDeterministicOrder(t *testing.T) {
	render := func() []byte {
		merged := trace.NewSession()
		for i, d := range []defense.Defense{defense.JSKernel("chrome"), defense.DeterFox()} {
			part := tracePart(t, d, int64(42+i))
			if err := merged.Absorb(part); err != nil {
				t.Fatalf("absorb %d: %v", i, err)
			}
		}
		merged.Close()
		var buf bytes.Buffer
		if err := trace.WriteText(&buf, merged.Records()); err != nil {
			t.Fatalf("render: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(), render()) {
		t.Fatal("absorbing the same parts in the same order produced different bytes")
	}
}

// TestAbsorbRejectsMisuse pins the guard rails: unclosed parts, closed
// receivers, and self-absorption are errors.
func TestAbsorbRejectsMisuse(t *testing.T) {
	open := trace.NewSession()
	open.Emit(trace.Record{Op: trace.OpInstall, API: "window"})
	dst := trace.NewSession()
	if err := dst.Absorb(open); err == nil {
		t.Fatal("absorbed an unclosed part")
	}
	open.Close()
	if err := dst.Absorb(open); err != nil {
		t.Fatalf("closed part refused: %v", err)
	}
	if err := dst.Absorb(dst); err == nil {
		t.Fatal("session absorbed itself")
	}
	dst.Close()
	if err := dst.Absorb(open); err == nil {
		t.Fatal("closed session absorbed a part")
	}
}

// TestAbsorbShiftsScopedMetrics: a part's registry folds into the
// parent with its scope IDs shifted past the parent's allocator, like
// its records, while scope 0 ("no scope") stays 0.
func TestAbsorbShiftsScopedMetrics(t *testing.T) {
	part := trace.NewSession()
	sc := part.NextScope()
	part.Emit(trace.Record{Thread: 2, Scope: sc, Op: trace.OpInstall, API: "window"})
	part.Emit(trace.Record{Thread: 2, Scope: sc, Op: trace.OpEnqueue, API: "setTimeout", Event: 1, Depth: 3})
	part.Emit(trace.Record{Thread: 2, Scope: sc, Op: trace.OpCancel, API: "setTimeout", Event: 1})
	part.Emit(trace.Record{Thread: 2, Op: trace.OpEnqueue, API: "fetch", Depth: 5})
	part.Close()

	parent := trace.NewSession()
	parent.NextScope()
	parent.NextScope()
	if err := parent.Absorb(part); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	want := []trace.ScopeDepth{{Scope: 0, Thread: 0, HighWater: 5}, {Scope: 3, Thread: 2, HighWater: 3}}
	if got := parent.Metrics().QueueHighWater(); !reflect.DeepEqual(got, want) {
		t.Fatalf("queue high water %+v, want %+v", got, want)
	}
	if got := parent.Records(); got[0].Scope != 3 || got[3].Scope != 0 {
		t.Fatalf("records remapped to scopes %d and %d, want 3 and 0", got[0].Scope, got[3].Scope)
	}
}
