package kernel

import (
	"fmt"
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// newPinBrowser builds a kernelized browser under the in-package test
// policy, with ts (which may be nil) attached before the main scope is
// installed.
func newPinBrowser(t *testing.T, ts *trace.Session) (*browser.Browser, *Shared) {
	t.Helper()
	s := sim.New(1)
	s.MaxSteps = 5_000_000
	shared := NewShared(quantumPolicy{})
	shared.SetTracer(ts)
	b := browser.New(s, browser.Options{InstallScope: shared.Install})
	b.Origin = "https://site.example"
	return b, shared
}

// pinAllocFree fails unless round allocates nothing once warm.
func pinAllocFree(t *testing.T, what string, round func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(200, round); allocs != 0 {
		t.Errorf("%s allocates %.1f times per round, want 0", what, allocs)
	}
}

// runAll drives the simulator until no work remains.
func runAll(t *testing.T, b *browser.Browser) {
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
}

// callbackEvents counts the timer-fired and frame-tick events it sees
// and keeps none.
type callbackEvents int

func (c *callbackEvents) Trace(ev browser.TraceEvent) {
	if ev.Kind == browser.TraceTimerFired || ev.Kind == browser.TraceFrameTick {
		*c++
	}
}

// TestKernelTimerRoundTripsAllocFree: a kernelized setTimeout and a
// kernelized requestAnimationFrame, from registration through native
// confirmation to dispatch, allocate nothing beyond the caller's own
// callback: the event comes from the kernel's pool and confirms as the
// native timer's typed target. With obs events on, the callback's obs
// wrapper is pooled too: the one a fired registration released is the
// next registration's.
func TestKernelTimerRoundTripsAllocFree(t *testing.T) {
	for _, obs := range []bool{false, true} {
		var events callbackEvents
		s := sim.New(1)
		b := browser.New(s, browser.Options{InstallScope: NewShared(quantumPolicy{}).Install, ObsEvents: obs, Tracer: &events})
		g := b.Window()
		timeouts, frames := 0, 0
		onTimeout := func(*browser.Global) { timeouts++ }
		onFrame := func(*browser.Global, float64) { frames++ }
		pinAllocFree(t, fmt.Sprintf("kernelized setTimeout→dispatch (obs %v)", obs), func() {
			g.SetTimeout(onTimeout, sim.Millisecond)
			runAll(t, b)
		})
		pinAllocFree(t, fmt.Sprintf("kernelized rAF→dispatch (obs %v)", obs), func() {
			g.RequestAnimationFrame(onFrame)
			runAll(t, b)
		})
		if timeouts == 0 || frames == 0 {
			t.Fatalf("obs %v: dispatched %d timeouts and %d frames", obs, timeouts, frames)
		}
		if obs && int(events) != timeouts+frames {
			t.Fatalf("%d callbacks ran and %d obs events were emitted", timeouts+frames, events)
		}
	}
}

// TestKernelMessageRoundTripsAllocFree: a main-scope postMessage and a
// worker→main postMessage, from the post through native delivery to the
// user handler, allocate nothing beyond the caller's own data: the
// envelope and the delivery event are pooled and the message travels
// unboxed.
func TestKernelMessageRoundTripsAllocFree(t *testing.T) {
	b, _ := newPinBrowser(t, nil)
	var workerScope *browser.Global
	b.RegisterWorkerScript("pin.js", func(wg *browser.Global) { workerScope = wg })
	self, fromWorker := 0, 0
	b.RunScript("main", func(g *browser.Global) {
		g.SetOnMessage(func(*browser.Global, browser.MessageEvent) { self++ })
		w, err := g.NewWorker("pin.js")
		if err != nil {
			t.Fatalf("new worker: %v", err)
		}
		w.SetOnMessage(func(_ *browser.Global, m browser.MessageEvent) {
			if m.SourceWorker == w.ID() {
				fromWorker++
			}
		})
	})
	runAll(t, b)
	if workerScope == nil {
		t.Fatal("worker script never ran")
	}
	var data any = &struct{ n int }{7}
	g := b.Window()
	pinAllocFree(t, "main-scope postMessage→delivery", func() {
		g.PostMessage(data)
		runAll(t, b)
	})
	pinAllocFree(t, "worker→main postMessage→delivery", func() {
		workerScope.PostMessage(data)
		runAll(t, b)
	})
	if self == 0 || fromWorker == 0 {
		t.Fatalf("delivered %d self-posts and %d worker messages", self, fromWorker)
	}
}

// TestWatchdogExpiredEventStorageReuse: an event the watchdog expired
// goes back to the pool, and the next registration reuses its storage.
// What still holds the expired event must then leave the new occupant
// alone: its native timer's late fire, clearInterval on its interval,
// and StopCSSAnimation on its animation.
func TestWatchdogExpiredEventStorageReuse(t *testing.T) {
	noop := func(*browser.Global) {}
	cases := []struct {
		name  string
		start func(g *browser.Global) (after func())
	}{
		{"late native fire", func(g *browser.Global) func() {
			g.SetTimeout(noop, 120*sim.Second)
			return func() {}
		}},
		{"clearInterval", func(g *browser.Global) func() {
			id := g.SetInterval(noop, 120*sim.Second)
			return func() { g.ClearInterval(id) }
		}},
		{"StopCSSAnimation", func(g *browser.Global) func() {
			id := g.StartCSSAnimation(nil, func(*browser.Global, int) {})
			return func() { g.StopCSSAnimation(id) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b, shared := newPinBrowser(t, nil)
			g := b.Window()
			k := shared.KernelOf(g)
			after := c.start(g)
			expired := k.queue.Top().token()
			k.drain() // arms the watchdog on the pending head
			// Nothing runs on the thread until the watchdog has expired
			// the head: no native tick or fire confirms it first.
			g.Busy(70 * sim.Second)
			if err := b.RunFor(61 * sim.Second); err != nil {
				t.Fatalf("run: %v", err)
			}
			registered := b.Sim.Now()
			firedAt := sim.Time(-1)
			id := g.SetTimeout(func(*browser.Global) { firedAt = b.Sim.Now() }, 100*sim.Second)
			if uint32(id) != uint32(expired) || uint64(id) == expired {
				t.Fatalf("new timer %#x does not reuse the expired event's storage %#x", id, expired)
			}
			after()
			runAll(t, b)
			if firedAt < registered+100*sim.Second {
				t.Fatalf("new occupant dispatched at %v, want no earlier than %v", firedAt, registered+100*sim.Second)
			}
		})
	}
}

// tieOrder dispatches the earliest- or the latest-scheduled of any events
// that share a virtual time, and records the ID of every watchdog alarm
// it sees fire.
type tieOrder struct {
	last   bool
	alarms []sim.EventID
}

func (c *tieOrder) Choose(_ sim.Time, cands []sim.Choice) int {
	if c.last {
		return len(cands) - 1
	}
	return 0
}

func (c *tieOrder) Dispatched(_ uint64, ch sim.Choice) {
	if ch.Name == "kernel-watchdog" {
		c.alarms = append(c.alarms, ch.ID)
	}
}

// TestWatchdogExpiresEventWhoseAlarmFired: two events of one kernel are
// armed at the same virtual time, the later-predicted one first, and a
// Chooser fires their alarms in arming order or reversed. Each expire
// record names the event whose alarm fired, neither the one armed first
// nor the queue head.
func TestWatchdogExpiresEventWhoseAlarmFired(t *testing.T) {
	for _, reversed := range []bool{false, true} {
		ts := trace.NewSession()
		b, shared := newPinBrowser(t, ts)
		ch := &tieOrder{last: reversed}
		b.Sim.SetChooser(ch)
		g := b.Window()
		k := shared.KernelOf(g)
		noop := func(*browser.Global) {}
		idA := g.SetTimeout(noop, 200*sim.Second)
		k.drain() // arms A
		idB := g.SetTimeout(noop, 100*sim.Second)
		k.drain() // B is the new head: armed at the same virtual time as A
		evA, evB := k.queue.queued(uint64(idA)), k.queue.queued(uint64(idB))
		if evA == nil || evB == nil || !evA.watchdogArmed || !evB.watchdogArmed {
			t.Fatal("both events should be queued with armed alarms")
		}
		// Events go back to the pool as they leave the queue, so keep
		// their IDs before the run.
		a, bID := uint64(evA.ID), uint64(evB.ID)
		owner := map[sim.EventID]uint64{evA.watchdogID: a, evB.watchdogID: bID}
		runAll(t, b)
		var expired []uint64
		for _, r := range ts.Records() {
			if r.Op == trace.OpExpire {
				expired = append(expired, r.Event)
			}
		}
		if len(ch.alarms) != 2 || len(expired) != 2 {
			t.Fatalf("reversed=%v: fired alarms %v, expire records for events %v; want 2 of each", reversed, ch.alarms, expired)
		}
		if first := owner[ch.alarms[0]]; (first == bID) != reversed {
			t.Fatalf("reversed=%v: event %d's alarm fired first", reversed, first)
		}
		for i, alarm := range ch.alarms {
			if expired[i] != owner[alarm] {
				t.Fatalf("reversed=%v: expire record %d names event %d, but the alarm that fired was event %d's", reversed, i, expired[i], owner[alarm])
			}
		}
	}
}
