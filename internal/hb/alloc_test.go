package hb

import (
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// TestLifecycleAllocs pins that the detector reuses retired clocks:
// after warm-up, a kernel event's enqueue → confirm → dispatch, and a
// self-postMessage's send and delivery, allocate nothing.
func TestLifecycleAllocs(t *testing.T) {
	d := NewDetector()
	var seq, ev uint64
	var vt sim.Time
	round := func() {
		ev++
		for _, op := range []trace.Op{trace.OpEnqueue, trace.OpConfirm, trace.OpDispatch} {
			seq++
			vt += sim.Microsecond
			thread := 1
			if op == trace.OpConfirm {
				thread = 2
			}
			d.Observe(trace.Record{Seq: seq, Run: 1, VT: vt, Thread: thread, Scope: 1, Op: op, API: "setTimeout", Event: ev})
		}
		for _, api := range []string{"post-message", "message-delivered"} {
			seq++
			vt += sim.Microsecond
			d.Observe(trace.Record{Seq: seq, Run: 1, VT: vt, Thread: 1, Op: trace.OpNative, API: api, Reason: "self"})
		}
	}
	for i := 0; i < 64; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(1000, round); allocs != 0 {
		t.Fatalf("a steady-state event lifecycle allocated %.1f times; want 0", allocs)
	}
}
