package kernel

import (
	"math/rand"
	"testing"
	"testing/quick"

	"jskernel/internal/sim"
)

func TestEventQueueOrdering(t *testing.T) {
	q := NewEventQueue()
	e3 := q.NewEvent("c", 30, nil)
	e1 := q.NewEvent("a", 10, nil)
	e2 := q.NewEvent("b", 20, nil)
	if q.Len() != 3 {
		t.Fatalf("len = %d", q.Len())
	}
	if top := q.Top(); top != e1 {
		t.Fatalf("top = %v, want earliest", top.API)
	}
	if got := q.Pop(); got != e1 {
		t.Fatal("pop order wrong")
	}
	if got := q.Pop(); got != e2 {
		t.Fatal("pop order wrong")
	}
	if got := q.Pop(); got != e3 {
		t.Fatal("pop order wrong")
	}
	if q.Pop() != nil {
		t.Fatal("pop of empty queue should be nil")
	}
	if q.Top() != nil {
		t.Fatal("top of empty queue should be nil")
	}
}

func TestEventQueueTieBreakBySeq(t *testing.T) {
	q := NewEventQueue()
	var ids []EventID
	for i := 0; i < 5; i++ {
		ids = append(ids, q.NewEvent("tie", 100, nil).ID)
	}
	for i := 0; i < 5; i++ {
		if got := q.Pop(); got.ID != ids[i] {
			t.Fatalf("tie-break violated at %d", i)
		}
	}
}

func TestPropertyQueueMatchesReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewEventQueue()
		n := rng.Intn(100) + 1
		type ref struct {
			pred sim.Time
			id   EventID
		}
		var refs []ref
		for i := 0; i < n; i++ {
			pred := sim.Time(rng.Intn(50))
			ev := q.NewEvent("p", pred, nil)
			refs = append(refs, ref{pred: pred, id: ev.ID})
		}
		if err := q.Validate(); err != nil {
			return false
		}
		// Stable sort by (pred, insertion order) — ids are insertion-ordered.
		for i := 1; i < len(refs); i++ {
			for j := i; j > 0 && (refs[j-1].pred > refs[j].pred ||
				(refs[j-1].pred == refs[j].pred && refs[j-1].id > refs[j].id)); j-- {
				refs[j-1], refs[j] = refs[j], refs[j-1]
			}
		}
		for _, want := range refs {
			got := q.Pop()
			if got == nil || got.ID != want.id {
				return false
			}
		}
		return q.Pop() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClockTicking(t *testing.T) {
	c := NewClock(sim.Millisecond)
	if c.Now() != 0 {
		t.Fatal("clock should start at 0")
	}
	c.Tick(3 * sim.Millisecond)
	if c.Now() != 3*sim.Millisecond || c.Ticks() != 1 {
		t.Fatalf("after tick: now=%v ticks=%d", c.Now(), c.Ticks())
	}
	c.TickTo(10 * sim.Millisecond)
	if c.Now() != 10*sim.Millisecond {
		t.Fatalf("TickTo: now=%v", c.Now())
	}
	c.TickTo(5 * sim.Millisecond) // backwards: no-op
	if c.Now() != 10*sim.Millisecond {
		t.Fatal("clock moved backwards")
	}
	c.Tick(0) // non-positive: no-op
	c.Tick(-sim.Millisecond)
	if c.Now() != 10*sim.Millisecond {
		t.Fatal("non-positive tick changed clock")
	}
}

func TestClockDisplayQuantized(t *testing.T) {
	c := NewClock(5 * sim.Millisecond)
	c.TickTo(13 * sim.Millisecond)
	if got := c.DisplayMillis(); got != 10 {
		t.Fatalf("display = %v, want 10 (quantized)", got)
	}
	if got := c.DisplayUnixMillis(); got != 13 {
		t.Fatalf("unix display = %v, want 13", got)
	}
}

func TestClockZeroQuantumDefaults(t *testing.T) {
	c := NewClock(0)
	if c.Quantum() != sim.Millisecond {
		t.Fatalf("quantum = %v, want 1ms default", c.Quantum())
	}
}

func TestPropertyClockMonotone(t *testing.T) {
	f := func(steps []int16) bool {
		c := NewClock(sim.Millisecond)
		last := c.Now()
		for _, s := range steps {
			if s%2 == 0 {
				c.Tick(sim.Duration(s))
			} else {
				c.TickTo(sim.Time(s) * sim.Millisecond)
			}
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusPending: "pending", StatusReady: "ready",
		StatusCancelled: "cancelled", StatusDone: "done", Status(0): "invalid",
	}
	for s, str := range want {
		if s.String() != str {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), str)
		}
	}
}

func TestDefaultPredictDelay(t *testing.T) {
	q := sim.Millisecond
	lp := 10 * sim.Millisecond
	cases := []struct {
		api       string
		requested sim.Duration
		want      sim.Duration
	}{
		{"setTimeout", 0, q},
		{"setTimeout", 500 * sim.Microsecond, q},
		{"setTimeout", 2500 * sim.Microsecond, 3 * q},
		{"message", 0, q},
		{"fetch", 0, lp},
		{"script-load", 0, lp},
		{"raf", 0, 17 * sim.Millisecond},
		{"cue", 0, 100 * sim.Millisecond},
		{"unknown-api", 0, q},
	}
	for _, tc := range cases {
		if got := DefaultPredictDelay(tc.api, tc.requested, q, lp); got != tc.want {
			t.Errorf("PredictDelay(%q, %v) = %v, want %v", tc.api, tc.requested, got, tc.want)
		}
	}
	// Zero quantum defaults to 1ms.
	if got := DefaultPredictDelay("setTimeout", 0, 0, lp); got != sim.Millisecond {
		t.Errorf("zero-quantum predict = %v", got)
	}
}
