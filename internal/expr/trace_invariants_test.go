package expr

import (
	"sort"
	"testing"

	"jskernel/internal/trace"
)

// TestTable1TraceInvariants replays the kernel trace of the full Table I
// matrix — every attack scenario against every defense column — through
// trace.Validate, then re-derives the terminal-accounting equation per
// kernelized scope: dispatched + shed + cancelled + expired == enqueued
// for every kernel, not just in aggregate.
func TestTable1TraceInvariants(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table I matrix in -short mode")
	}
	cfg := QuickConfig()
	cfg.Reps = 1 // one rep per cell: every scenario runs, the trace stays tractable
	cfg.Trace = trace.NewSession()

	if _, err := Table1(cfg); err != nil {
		t.Fatalf("table 1: %v", err)
	}
	cfg.Trace.Close()
	recs := cfg.Trace.Records()
	if len(recs) == 0 {
		t.Fatal("table 1 produced no trace records")
	}

	rep, err := trace.Validate(recs)
	if err != nil {
		t.Fatalf("table 1 trace fails kernel lifecycle invariants: %v", err)
	}
	if rep.Enqueued == 0 || rep.Dispatched == 0 {
		t.Fatalf("degenerate trace: %d enqueued, %d dispatched", rep.Enqueued, rep.Dispatched)
	}
	if rep.Open != 0 {
		t.Fatalf("%d events still open after Close", rep.Open)
	}
	if got := rep.Dispatched + rep.Shed + rep.Cancelled + rep.Expired; got != rep.Enqueued {
		t.Fatalf("aggregate accounting broken: dispatched+shed+cancelled+expired = %d, enqueued = %d",
			got, rep.Enqueued)
	}

	// Per-kernel accounting: group lifecycle records by scope and check
	// the equation for each kernelized scope independently.
	type acct struct{ enqueued, terminal int }
	byScope := make(map[int]*acct)
	for _, r := range recs {
		if r.Scope == 0 || r.Event == 0 {
			continue
		}
		a := byScope[r.Scope]
		if a == nil {
			a = &acct{}
			byScope[r.Scope] = a
		}
		switch {
		case r.Op == trace.OpEnqueue:
			a.enqueued++
		case r.Op.Terminal():
			a.terminal++
		}
	}
	// Scopes with no event traffic (install-only frames/workers) appear in
	// the report but not here, so the event-bearing set is a subset.
	if len(byScope) == 0 || len(byScope) > rep.Scopes {
		t.Fatalf("event-bearing scopes = %d, report scopes = %d", len(byScope), rep.Scopes)
	}
	scopes := make([]int, 0, len(byScope))
	for s := range byScope {
		scopes = append(scopes, s)
	}
	sort.Ints(scopes)
	for _, s := range scopes {
		a := byScope[s]
		if a.terminal != a.enqueued {
			t.Errorf("scope %d: %d terminal records for %d enqueued events", s, a.terminal, a.enqueued)
		}
	}

	// The session's incrementally-maintained metrics must agree with the
	// replay-derived counts.
	m := cfg.Trace.Metrics()
	if m.Enqueued != uint64(rep.Enqueued) || m.Dispatched != uint64(rep.Dispatched) ||
		m.Shed != uint64(rep.Shed) || m.Expired != uint64(rep.Expired) {
		t.Fatalf("metrics diverge from replay: metrics enq=%d disp=%d shed=%d exp=%d, replay enq=%d disp=%d shed=%d exp=%d",
			m.Enqueued, m.Dispatched, m.Shed, m.Expired,
			rep.Enqueued, rep.Dispatched, rep.Shed, rep.Expired)
	}
}
