package kernel

import (
	"testing"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

// quantumPolicy is a minimal deterministic policy for in-package tests
// (internal/policy imports this package, so its policies are out of
// reach here).
type quantumPolicy struct{}

func (quantumPolicy) Name() string          { return "test-quantum" }
func (quantumPolicy) Deterministic() bool   { return true }
func (quantumPolicy) Quantum() sim.Duration { return sim.Millisecond }
func (quantumPolicy) PredictDelay(api string, d sim.Duration) sim.Duration {
	return DefaultPredictDelay(api, d, sim.Millisecond, 0)
}
func (quantumPolicy) Evaluate(CallContext) Verdict { return Allow }

// TestTimerMapRetiredAtDispatch: a timer's event is held only while it
// is queued. After a setTimeout tick loop, an animation-frame loop and
// a timer cleared while ready-but-undispatched have all finished, every
// event is back in the queue's pool — fired timers no longer pin their
// events and callbacks for the rest of the run.
func TestTimerMapRetiredAtDispatch(t *testing.T) {
	s := sim.New(1)
	shared := NewShared(quantumPolicy{})
	b := browser.New(s, browser.Options{InstallScope: shared.Install})
	b.Origin = "https://site.example"
	b.Net.RegisterScript("https://site.example/slow.js", 8_000_000)
	const ticks = 50
	var timeouts, frames int
	clearedFired := false
	b.RunScript("main", func(g *browser.Global) {
		var tick func(*browser.Global)
		tick = func(gg *browser.Global) {
			if timeouts++; timeouts < ticks {
				gg.SetTimeout(tick, 0)
			}
		}
		g.SetTimeout(tick, 0)
		var frame func(*browser.Global, float64)
		frame = func(gg *browser.Global, _ float64) {
			if frames++; frames < ticks {
				gg.RequestAnimationFrame(frame)
			}
		}
		g.RequestAnimationFrame(frame)
		// A fetch predicted long before it completes blocks the queue, so
		// the 50ms timer fires natively (confirmed) and then waits; the
		// 40ms timer clears it in that window.
		g.Fetch("https://site.example/slow.js", browser.FetchOptions{}, func(*browser.Response, error) {})
		id := g.SetTimeout(func(*browser.Global) { clearedFired = true }, 50*sim.Millisecond)
		g.SetTimeout(func(gg *browser.Global) { gg.ClearTimeout(id) }, 40*sim.Millisecond)
	})
	if err := b.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if timeouts != ticks || frames != ticks {
		t.Fatalf("timeouts=%d frames=%d, want %d each", timeouts, frames, ticks)
	}
	if clearedFired {
		t.Fatal("timer cleared while ready-but-undispatched still fired")
	}
	q := shared.KernelFor(b.Main()).queue
	if held := len(q.pool) - len(q.free); held != 0 {
		t.Fatalf("%d of %d pooled events still held after the run, want 0", held, len(q.pool))
	}
	for _, ev := range q.pool {
		if ev.timeout != nil || ev.frame != nil || ev.Callback != nil {
			t.Fatalf("released event %d still holds a callback", ev.slot)
		}
	}
}
