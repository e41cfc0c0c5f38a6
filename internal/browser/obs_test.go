package browser

import (
	"strings"
	"testing"

	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

// newObsTestBrowser is newTestBrowser with observability events on,
// traced to tr.
func newObsTestBrowser(t *testing.T, tr Tracer) *Browser {
	t.Helper()
	s := sim.New(1)
	s.MaxSteps = 5_000_000
	cfg := webnet.DefaultConfig()
	cfg.JitterFrac = 0
	b := New(s, Options{Net: webnet.New(cfg, s.Rand()), ObsEvents: true, Tracer: tr})
	b.Origin = "https://site.example"
	return b
}

// countTracer counts the events it sees and keeps none.
type countTracer int

func (c *countTracer) Trace(TraceEvent) { *c++ }

// freeObsTimers is the length of b's free list of timer obs wrappers.
func freeObsTimers(b *Browser) int {
	n := 0
	for w := b.obsFree; w != nil; w = w.next {
		n++
	}
	return n
}

// timerEvents returns the timer-fired events of rec.
func timerEvents(rec *Recorder) []TraceEvent {
	var out []TraceEvent
	for _, ev := range rec.Events() {
		if ev.Kind == TraceTimerFired {
			out = append(out, ev)
		}
	}
	return out
}

// TestObsTimerRoundTripsAllocFree: with obs events on, a native
// setTimeout and a native requestAnimationFrame round trip allocate
// nothing once warm, because each fired wrapper goes back on the free
// list and the next registration takes it.
func TestObsTimerRoundTripsAllocFree(t *testing.T) {
	var events countTracer
	b := newObsTestBrowser(t, &events)
	g := b.Window()
	ran := 0
	onTimeout := func(*Global) { ran++ }
	onFrame := func(*Global, float64) { ran++ }
	if allocs := testing.AllocsPerRun(1000, func() {
		g.SetTimeout(onTimeout, sim.Millisecond)
		run(t, b)
	}); allocs != 0 {
		t.Errorf("obs-on setTimeout→fire allocates %.1f times per round, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		g.RequestAnimationFrame(onFrame)
		run(t, b)
	}); allocs != 0 {
		t.Errorf("obs-on rAF→fire allocates %.1f times per round, want 0", allocs)
	}
	if ran == 0 || int(events) != ran {
		t.Fatalf("%d callbacks ran and %d obs events were emitted, want equal and nonzero", ran, events)
	}
}

// TestObsTimerReregisterReusesWrapper: a one-shot wrapper is released
// before its user callback runs, so at callback entry it heads the free
// list, and a callback that re-registers takes it back. Every event
// still carries the requested delay of the registration that fired.
func TestObsTimerReregisterReusesWrapper(t *testing.T) {
	rec := &Recorder{}
	b := newObsTestBrowser(t, rec)
	const ticks = 12
	delay := func(k int) sim.Duration { return sim.Duration(k%3+1) * sim.Millisecond }
	var heads []*obsTimer
	var frameHeads []*obsTimer
	b.RunScript("main", func(g *Global) {
		k := 0
		var tick func(*Global)
		tick = func(gg *Global) {
			heads = append(heads, b.obsFree)
			if k++; k < ticks {
				gg.SetTimeout(tick, delay(k))
			}
		}
		g.SetTimeout(tick, delay(0))
		f := 0
		var frame func(*Global, float64)
		frame = func(gg *Global, _ float64) {
			frameHeads = append(frameHeads, b.obsFree)
			if f++; f < ticks {
				gg.RequestAnimationFrame(frame)
			}
		}
		g.RequestAnimationFrame(frame)
	})
	run(t, b)
	for name, hs := range map[string][]*obsTimer{"setTimeout": heads, "rAF": frameHeads} {
		if len(hs) != ticks {
			t.Fatalf("%s chain ran %d ticks, want %d", name, len(hs), ticks)
		}
		for k, h := range hs {
			if h == nil || h != hs[0] {
				t.Fatalf("%s tick %d: free-list head %p at callback entry, want the chain's one wrapper %p", name, k, h, hs[0])
			}
		}
	}
	evs := timerEvents(rec)
	if len(evs) != ticks {
		t.Fatalf("%d timer-fired events, want %d", len(evs), ticks)
	}
	for k, ev := range evs {
		if ev.Aux != int64(delay(k)) || ev.Detail != "" || ev.Value != 1 {
			t.Fatalf("event %d = %+v, want aux %d, no detail, token 1", k, ev, delay(k))
		}
	}
}

// TestObsIntervalWrapperNeverRecycled: an interval's wrapper fires on
// every tick and never goes on the free list, so a one-shot registered
// from the interval's callback gets a wrapper of its own and the
// interval keeps running its own callback.
func TestObsIntervalWrapperNeverRecycled(t *testing.T) {
	rec := &Recorder{}
	b := newObsTestBrowser(t, rec)
	const ticks = 5
	intervals, shots := 0, 0
	b.RunScript("main", func(g *Global) {
		var id int
		id = g.SetInterval(func(gg *Global) {
			if intervals++; intervals == ticks {
				gg.ClearInterval(id)
			}
			gg.SetTimeout(func(*Global) { shots++ }, 0)
		}, 10*sim.Millisecond)
	})
	run(t, b)
	if intervals != ticks || shots != ticks {
		t.Fatalf("interval ran %d times and its one-shots %d, want %d each", intervals, shots, ticks)
	}
	evs := timerEvents(rec)
	if len(evs) != 2*ticks {
		t.Fatalf("%d timer-fired events, want %d", len(evs), 2*ticks)
	}
	for k, ev := range evs {
		want := TraceEvent{Detail: "interval", Aux: int64(10 * sim.Millisecond)}
		if k%2 == 1 {
			want = TraceEvent{}
		}
		if ev.Detail != want.Detail || ev.Aux != want.Aux {
			t.Fatalf("event %d = %+v, want detail %q aux %d", k, ev, want.Detail, want.Aux)
		}
	}
	if n := freeObsTimers(b); n != 1 {
		t.Fatalf("%d wrappers on the free list, want 1: the one-shots' wrapper alone", n)
	}
}

// TestObsClearedTimerWrapperDropped: clearing a timer before it fires
// leaves its wrapper off the free list for good, since only firing
// releases a wrapper, so the next registration gets a fresh one. The
// cleared callback never runs and emits nothing.
func TestObsClearedTimerWrapperDropped(t *testing.T) {
	rec := &Recorder{}
	b := newObsTestBrowser(t, rec)
	cleared, later := false, 0
	b.RunScript("main", func(g *Global) {
		// A fired one-shot puts one wrapper on the free list.
		g.SetTimeout(func(gg *Global) {
			id := gg.SetTimeout(func(*Global) { cleared = true }, 5*sim.Millisecond)
			gg.ClearTimeout(id)
			if n := freeObsTimers(b); n != 0 {
				t.Errorf("%d wrappers on the free list after a clear, want 0", n)
			}
			gg.SetTimeout(func(*Global) { later++ }, 2*sim.Millisecond)
			gg.SetTimeout(func(*Global) { later++ }, 3*sim.Millisecond)
		}, sim.Millisecond)
	})
	run(t, b)
	if cleared || later != 2 {
		t.Fatalf("cleared timer ran: %v; later timers ran %d times, want 2", cleared, later)
	}
	var auxes []int64
	for _, ev := range timerEvents(rec) {
		auxes = append(auxes, ev.Aux)
	}
	want := []int64{int64(sim.Millisecond), int64(2 * sim.Millisecond), int64(3 * sim.Millisecond)}
	if len(auxes) != len(want) || auxes[0] != want[0] || auxes[1] != want[1] || auxes[2] != want[2] {
		t.Fatalf("timer-fired delays %v, want %v", auxes, want)
	}
	if n := freeObsTimers(b); n != 2 {
		t.Fatalf("%d wrappers on the free list, want the 2 the later timers released", n)
	}
}

// TestObsReleasedWrapperPanics: a binding that runs a one-shot callback
// twice trips the released wrapper's guard.
func TestObsReleasedWrapperPanics(t *testing.T) {
	b := newObsTestBrowser(t, nil)
	g := b.Window()
	cb := g.obsTimerCB(func(*Global) {}, 0, false)
	cb(g)
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "released") {
			t.Fatalf("a released wrapper fired again and panicked with %q, want a message naming the release", msg)
		}
	}()
	cb(g)
}
