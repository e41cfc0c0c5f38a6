package browser

import (
	"testing"

	"jskernel/internal/sim"
)

// TestNativeSetTimeoutAllocFree: a native setTimeout fills a recycled
// slot of the scope's timer table and queues a typed task naming it, so
// registering and firing a timer allocates nothing beyond the caller's
// own callback.
func TestNativeSetTimeoutAllocFree(t *testing.T) {
	b := newTestBrowser(t)
	g := b.Window()
	ran := 0
	cb := func(*Global) { ran++ }
	allocs := testing.AllocsPerRun(1000, func() {
		g.SetTimeout(cb, sim.Millisecond)
		if err := b.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("native setTimeout→fire allocates %.1f times per round, want 0", allocs)
	}
	if ran == 0 {
		t.Fatal("no timer fired")
	}
}

// TestStaleTimerIDAfterSlotReuse: a fired timer's slot is reused by the
// next registration, but its spent ID never clears the new occupant,
// whichever clear function it is passed to and whichever kind the new
// timer is. Every ID is positive and non-zero.
func TestStaleTimerIDAfterSlotReuse(t *testing.T) {
	type kind struct {
		name string
		arm  func(g *Global, fired *bool) int
	}
	kinds := []kind{
		{"timeout", func(g *Global, fired *bool) int {
			return g.SetTimeout(func(*Global) { *fired = true }, sim.Millisecond)
		}},
		{"interval", func(g *Global, fired *bool) int {
			var id int
			id = g.SetInterval(func(gg *Global) { *fired = true; gg.ClearInterval(id) }, sim.Millisecond)
			return id
		}},
		{"frame", func(g *Global, fired *bool) int {
			return g.RequestAnimationFrame(func(*Global, float64) { *fired = true })
		}},
	}
	clears := []struct {
		name  string
		clear func(g *Global, id int)
	}{
		{"clearTimeout", (*Global).ClearTimeout},
		{"clearInterval", (*Global).ClearInterval},
		{"cancelAnimationFrame", (*Global).CancelAnimationFrame},
	}
	for _, c := range clears {
		for _, k := range kinds {
			clearName, clear := c.name, c.clear
			t.Run(clearName+"/"+k.name, func(t *testing.T) {
				b := newTestBrowser(t)
				var stale, reused int
				fired := false
				b.RunScript("main", func(g *Global) {
					stale = g.SetTimeout(func(gg *Global) {
						// stale has fired: its slot is free, and the
						// next registration takes it.
						reused = k.arm(gg, &fired)
						clear(gg, stale)
					}, sim.Millisecond)
				})
				run(t, b)
				if stale <= 0 || reused <= 0 {
					t.Fatalf("timer IDs %d and %d, want positive", stale, reused)
				}
				if uint32(reused) != uint32(stale) || reused == stale {
					t.Fatalf("IDs %#x and %#x: want the same slot in a new generation", stale, reused)
				}
				if !fired {
					t.Fatalf("%s(stale ID) cleared the %s that reused its slot", clearName, k.name)
				}
			})
		}
	}
}

// TestFrameScopeTimers: a frame scope's timers live in the frame's own
// timer table, so clearing a frame timer leaves the window's timer of the
// same ID alone, and a frame timer's callback receives the main thread's
// global, as every main-thread task does.
func TestFrameScopeTimers(t *testing.T) {
	b := newTestBrowser(t)
	windowFired, clearedFired := false, false
	var got *Global
	b.RunScript("main", func(g *Global) {
		f, err := g.CreateFrame("https://frame.example")
		if err != nil {
			t.Fatalf("create frame: %v", err)
		}
		fs := f.Scope()
		wID := g.SetTimeout(func(*Global) { windowFired = true }, sim.Millisecond)
		fID := fs.SetTimeout(func(*Global) { clearedFired = true }, sim.Millisecond)
		if fID != wID {
			t.Fatalf("frame timer ID %#x, window timer ID %#x: each scope's table starts empty", fID, wID)
		}
		fs.ClearTimeout(fID)
		fs.SetTimeout(func(gg *Global) { got = gg }, 2*sim.Millisecond)
	})
	run(t, b)
	if !windowFired || clearedFired {
		t.Fatalf("window timer fired %v, cleared frame timer fired %v", windowFired, clearedFired)
	}
	if got != b.Window() {
		t.Fatalf("frame timer callback got global %p, want the window %p", got, b.Window())
	}
}
