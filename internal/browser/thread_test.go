package browser

import (
	"math/rand"
	"testing"

	"jskernel/internal/sim"
)

// TestPostTaskDispatchAllocFree: with a prebuilt callback, posting a
// task and dispatching it reuses the queue's backing array and the
// loop's prebuilt wakeup, so the round trip allocates nothing.
func TestPostTaskDispatchAllocFree(t *testing.T) {
	b := newTestBrowser(t)
	th := b.Main()
	ran := 0
	fn := func(*Global) { ran++ }
	allocs := testing.AllocsPerRun(1000, func() {
		th.PostTask(b.Sim.Now()+sim.Microsecond, fn)
		b.Sim.Step()
	})
	if allocs != 0 {
		t.Fatalf("PostTask→dispatch allocates %.1f times per round, want 0", allocs)
	}
	if ran == 0 || th.QueueDepth() != 0 {
		t.Fatalf("ran %d tasks, %d still queued", ran, th.QueueDepth())
	}
}

// TestTaskOrderUnderQueueReuse: tasks posted from running tasks at
// random arrivals — so the queue's head advances, its backing array is
// compacted and reused — still run in (arrival, insertion) order, each
// no earlier than its arrival.
func TestTaskOrderUnderQueueReuse(t *testing.T) {
	b := newTestBrowser(t)
	th := b.Main()
	rng := rand.New(rand.NewSource(3))
	type key struct {
		arrival sim.Time
		seq     int
	}
	queued := map[int]key{}
	posted, ran := 0, 0
	var post func(g *Global)
	post = func(g *Global) {
		at := g.thread.Now() + sim.Duration(rng.Intn(4))*sim.Millisecond
		id := posted
		posted++
		queued[id] = key{at, id}
		th.PostTask(at, func(g *Global) {
			k := queued[id]
			for other, ok := range queued {
				if ok.arrival < k.arrival || (ok.arrival == k.arrival && ok.seq < k.seq) {
					t.Fatalf("task %d %v ran before queued task %d %v", id, k, other, ok)
				}
			}
			if g.thread.Now() < k.arrival {
				t.Fatalf("task %d ran at %v before its arrival %v", id, g.thread.Now(), k.arrival)
			}
			delete(queued, id)
			ran++
			for n := rng.Intn(4); n > 0 && posted < 2000; n-- {
				post(g)
			}
		})
	}
	b.RunScript("seed", func(g *Global) {
		for i := 0; i < 8; i++ {
			post(g)
		}
	})
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if ran != posted || len(queued) != 0 || posted < 100 {
		t.Fatalf("posted %d, ran %d, %d left queued", posted, ran, len(queued))
	}
}
