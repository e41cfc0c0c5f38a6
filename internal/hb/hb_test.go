package hb

import (
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// acc builds one access record.
func acc(seq uint64, thread int, vt sim.Time, class string, id int64, action string) trace.Record {
	return trace.Record{Seq: seq, Run: 1, VT: vt, Thread: thread,
		Op: trace.OpAccess, API: class, Action: action, Value: id}
}

// edge builds one sync-edge record.
func edge(seq uint64, thread int, api string, id int64, action string) trace.Record {
	return trace.Record{Seq: seq, Run: 1, Thread: thread,
		Op: trace.OpEdge, API: api, Action: action, Value: id}
}

// native builds one bridged native-event record.
func native(seq uint64, thread int, api, reason string, wid int, value int64) trace.Record {
	return trace.Record{Seq: seq, Run: 1, Thread: thread, WorkerID: wid,
		Op: trace.OpNative, API: api, Reason: reason, Value: value}
}

func TestUnorderedWritesWithinWindowRace(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "w"),
		acc(2, 2, 50*sim.Microsecond, "buffer", 7, "w"),
	})
	if len(got) != 1 {
		t.Fatalf("want 1 race, got %d: %+v", len(got), got)
	}
	f := got[0]
	if f.Class != "buffer" || f.Target != 7 || f.Guardian {
		t.Errorf("finding misdescribed: %+v", f)
	}
	if f.First.Context != "t1" || f.Second.Context != "t2" {
		t.Errorf("contexts: %q vs %q", f.First.Context, f.Second.Context)
	}
	if len(f.Evidence) != 2 || f.Evidence[0] != 1 || f.Evidence[1] != 2 {
		t.Errorf("evidence chain: %v", f.Evidence)
	}
	if f.Second.VC == "" {
		t.Errorf("second site must carry its vector clock")
	}
}

func TestTemporalWindowExcludesDistantPairs(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "w"),
		acc(2, 2, 30*sim.Millisecond, "buffer", 7, "w"),
	})
	if len(got) != 0 {
		t.Fatalf("unordered but 30ms apart: want 0 races, got %+v", got)
	}
}

func TestOverlappingTaskIntervalsRace(t *testing.T) {
	// A stream-later access with an earlier cursor time means the two
	// tasks' execution intervals overlapped: the signed window admits it
	// (this is how the CVE-2014-3194 burst-vs-hammer interleaving looks
	// after the worker's burst task commits first).
	got := Replay([]trace.Record{
		acc(1, 2, 5*sim.Millisecond, "buffer", 7, "w"),
		acc(2, 1, 600*sim.Microsecond, "buffer", 7, "r"),
	})
	if len(got) != 1 {
		t.Fatalf("overlapping task intervals must race: got %+v", got)
	}
}

func TestGuardianIgnoresTemporalWindow(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 1, 0, "worker", 1, "wg"),
		acc(2, 1, 30*sim.Millisecond, "worker", 1, "w"),
	})
	if len(got) != 1 {
		t.Fatalf("guardian hazard must race regardless of distance: got %+v", got)
	}
	if !got[0].Guardian {
		t.Errorf("finding not marked guardian: %+v", got[0])
	}
	if got[0].First.Context != "g:worker:1" {
		t.Errorf("guardian context: %q", got[0].First.Context)
	}
}

func TestSyncEdgeOrdersAccesses(t *testing.T) {
	got := Replay([]trace.Record{
		edge(1, 1, "sab-lock", 7, "acq"),
		acc(2, 1, 0, "buffer", 7, "w"),
		edge(3, 1, "sab-lock", 7, "rel"),
		edge(4, 2, "sab-lock", 7, "acq"),
		acc(5, 2, 10*sim.Microsecond, "buffer", 7, "w"),
		edge(6, 2, "sab-lock", 7, "rel"),
	})
	if len(got) != 0 {
		t.Fatalf("lock-ordered accesses must not race: %+v", got)
	}
}

func TestKernelLifecycleOrdersDispatch(t *testing.T) {
	// Thread 1 writes, then enqueues+confirms an event dispatched on
	// thread 2, which reads: release/acquire through the kernel queue.
	recs := []trace.Record{
		acc(1, 1, 0, "dom", 3, "w"),
		{Seq: 2, Run: 1, Thread: 1, Scope: 1, Op: trace.OpEnqueue, API: "postMessage", Event: 9},
		{Seq: 3, Run: 1, Thread: 1, Scope: 1, Op: trace.OpConfirm, API: "postMessage", Event: 9},
		{Seq: 4, Run: 1, Thread: 2, Scope: 1, Op: trace.OpDispatch, API: "postMessage", Event: 9},
		acc(5, 2, 20*sim.Microsecond, "dom", 3, "r"),
	}
	if got := Replay(recs); len(got) != 0 {
		t.Fatalf("enqueue→dispatch must order the read after the write: %+v", got)
	}
	// Without the dispatch edge the same pair races.
	if got := Replay([]trace.Record{recs[0], recs[4]}); len(got) != 1 {
		t.Fatalf("control: unordered pair should race, got %+v", got)
	}
}

func TestMessageChannelFIFOEdge(t *testing.T) {
	// postMessage send on thread 1 → delivery on thread 2 orders the
	// write before the read.
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "w"),
		native(2, 1, "post-message", "to-worker", 4, 0),
		native(3, 2, "message-delivered", "to-worker", 4, 0),
		acc(4, 2, 10*sim.Microsecond, "buffer", 7, "r"),
	})
	if len(got) != 0 {
		t.Fatalf("message edge must order the accesses: %+v", got)
	}
}

func TestReleasedUseDeliveryIsNotAnEdge(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "w"),
		native(2, 1, "post-message", "to-parent", 4, 0),
		native(3, 2, "message-delivered", "released-use", 4, 0),
		acc(4, 2, 10*sim.Microsecond, "buffer", 7, "r"),
	})
	if len(got) != 1 {
		t.Fatalf("released-use delivery must not synchronize: %+v", got)
	}
}

func TestWorkerSpawnEdge(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 1, 0, "dom", 3, "w"),
		native(2, 1, "worker-created", "", 4, 0),
		native(3, 2, "worker-ready", "", 4, 0),
		acc(4, 2, 10*sim.Microsecond, "dom", 3, "r"),
	})
	if len(got) != 0 {
		t.Fatalf("spawn edge must order pre-spawn writes: %+v", got)
	}
}

func TestFetchLifecycleEdge(t *testing.T) {
	got := Replay([]trace.Record{
		acc(1, 2, 0, "worker", 4, "w"),
		native(2, 2, "fetch-start", "", 4, 11),
		native(3, 1, "fetch-abort", "orphaned", 4, 11),
		acc(4, 1, 10*sim.Microsecond, "worker", 4, "w"),
	})
	if len(got) != 0 {
		t.Fatalf("fetch issue→abort edge must order the accesses: %+v", got)
	}
}

func TestReadSharingPromotesToVCFallback(t *testing.T) {
	// Two concurrent readers (epoch cannot summarize them), then an
	// unordered write: both readers must be reported against the write.
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "r"),
		acc(2, 2, 10*sim.Microsecond, "buffer", 7, "r"),
		acc(3, 3, 20*sim.Microsecond, "buffer", 7, "w"),
	})
	if len(got) != 2 {
		t.Fatalf("read-shared target: want 2 read-write races, got %d: %+v", len(got), got)
	}
}

func TestEpochFastPathSameReader(t *testing.T) {
	// Repeated reads by one thread stay a single epoch: a later ordered
	// write (same thread) must not race.
	got := Replay([]trace.Record{
		acc(1, 1, 0, "buffer", 7, "r"),
		acc(2, 1, 1*sim.Microsecond, "buffer", 7, "r"),
		acc(3, 1, 2*sim.Microsecond, "buffer", 7, "w"),
	})
	if len(got) != 0 {
		t.Fatalf("same-thread history must never race: %+v", got)
	}
}

func TestFindingsDeduplicated(t *testing.T) {
	// A hundred unordered write pairs between the same two contexts on
	// one target collapse to one finding.
	var recs []trace.Record
	seq := uint64(1)
	for i := 0; i < 100; i++ {
		recs = append(recs, acc(seq, 1, sim.Time(i)*sim.Microsecond, "buffer", 7, "w"))
		seq++
		recs = append(recs, acc(seq, 2, sim.Time(i)*sim.Microsecond+1, "buffer", 7, "w"))
		seq++
	}
	got := Replay(recs)
	// t1-then-t2 and t2-then-t1 orderings are distinct pairs; nothing
	// more survives dedup.
	if len(got) > 2 {
		t.Fatalf("dedup failed: %d findings", len(got))
	}
}

func TestRunsAreIndependent(t *testing.T) {
	d := NewDetector()
	r1 := acc(1, 1, 0, "buffer", 7, "w")
	r2 := acc(2, 2, 10*sim.Microsecond, "buffer", 7, "w")
	r2.Run = 2 // different run: same target key, no shared history
	d.Observe(r1)
	d.Observe(r2)
	if got := d.Findings(); len(got) != 0 {
		t.Fatalf("accesses in different runs must not race: %+v", got)
	}
}

func TestDetachedDetectorZeroAlloc(t *testing.T) {
	var d *Detector
	rec := acc(1, 1, 0, "buffer", 7, "w")
	allocs := testing.AllocsPerRun(1000, func() { d.Observe(rec) })
	if allocs != 0 {
		t.Fatalf("detached (nil) detector must add zero allocations, got %v/op", allocs)
	}
	if d.Findings() != nil {
		t.Fatalf("nil detector must report nothing")
	}
}

func TestReplayDeterministic(t *testing.T) {
	recs := []trace.Record{
		acc(1, 1, 0, "buffer", 7, "r"),
		acc(2, 2, 10*sim.Microsecond, "buffer", 7, "w"),
		acc(3, 3, 20*sim.Microsecond, "worker", 1, "wg"),
		acc(4, 1, 21*sim.Microsecond, "worker", 1, "w"),
	}
	first := Replay(recs)
	for i := 0; i < 10; i++ {
		again := Replay(recs)
		if len(again) != len(first) {
			t.Fatalf("replay %d: %d findings vs %d", i, len(again), len(first))
		}
		for j := range first {
			if again[j].key() != first[j].key() || again[j].Second.VC != first[j].Second.VC {
				t.Fatalf("replay %d finding %d drifted: %+v vs %+v", i, j, again[j], first[j])
			}
		}
	}
}

// TestObserveKnownThreadAllocs pins the per-record path: once a thread's
// context is interned, a native record and a dispatch on that thread
// allocate nothing.
func TestObserveKnownThreadAllocs(t *testing.T) {
	d := NewDetector()
	d.Observe(native(1, 3, "timer-fired", "", 0, 1))
	for _, tc := range []struct {
		name string
		r    trace.Record
	}{
		{"native", native(2, 3, "timer-fired", "", 0, 1)},
		{"dispatch", trace.Record{Seq: 3, Run: 1, Thread: 3, Op: trace.OpDispatch, API: "setTimeout", Scope: 1, Event: 9}},
	} {
		if n := testing.AllocsPerRun(100, func() { d.Observe(tc.r) }); n != 0 {
			t.Errorf("%s: Observe allocated %v times per record, want 0", tc.name, n)
		}
	}
}
