package obs

import (
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// TestRecordPathAllocs pins the steady-state record path of the
// jsk-eval -obs-report flow: once a run and scope are known, a record
// sent through a retain-off session with the profiler, the detectors and
// the stream validator attached allocates nothing. Each round is one
// event's full lifecycle plus a clock read, under a fresh event ID.
func TestRecordPathAllocs(t *testing.T) {
	s := trace.NewSession()
	s.SetRetain(false)
	s.Attach(NewProfiler())
	s.Attach(NewDetectors(DefaultDetectorConfig()))
	s.Attach(trace.NewStreamValidator(false))
	run, scope := s.NextRun(), s.NextScope()
	rec := func(op trace.Op, api string, ev uint64, vt sim.Time) trace.Record {
		return trace.Record{Run: run, Thread: 1, Scope: scope, VT: vt, LC: vt, Op: op, API: api, Event: ev, Depth: 1}
	}
	s.Emit(rec(trace.OpInstall, "window", 0, 0))
	var ev uint64
	var vt sim.Time
	round := func() {
		ev++
		vt += sim.Millisecond
		s.Emit(rec(trace.OpPolicy, "setTimeout", 0, vt))
		s.Emit(trace.Record{Run: run, Thread: 1, Scope: scope, VT: vt, LC: vt, Op: trace.OpPolicy, API: "setTimeout", Event: ev, Action: "schedule"})
		s.Emit(rec(trace.OpEnqueue, "setTimeout", ev, vt))
		s.Emit(rec(trace.OpConfirm, "setTimeout", ev, vt))
		s.Emit(rec(trace.OpDispatch, "setTimeout", ev, vt+sim.Microsecond))
		s.Emit(trace.Record{Run: run, Thread: 1, VT: vt, Op: trace.OpNative, API: "clock-read", Value: mainToken})
	}
	for i := 0; i < 64; i++ {
		round() // warm up: the run, the scope, the node, the tallies
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a steady-state event lifecycle allocated %.1f times; want 0", allocs)
	}
}
