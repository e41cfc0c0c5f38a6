package attack

import (
	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/sim"
)

// This file implements the attacker's measurement channels — the implicit
// clocks of §II-A1 — and the two reusable measurement harnesses (for
// synchronous main-thread operations and for asynchronous targets).

// clockWorkerSrc is the spraying worker of Listing 1: it posts a message,
// reschedules itself, and thereby turns the parent's onmessage stream into
// a tick source that runs in parallel with main-thread work.
const clockWorkerSrc = "__implicit_clock_worker.js"

// installWorkerClock registers the Listing 1 worker.
func installWorkerClock(b *browser.Browser) {
	if b.HasWorkerScript(clockWorkerSrc) {
		return
	}
	b.RegisterWorkerScript(clockWorkerSrc, func(g *browser.Global) {
		var spray func(gg *browser.Global)
		spray = func(gg *browser.Global) {
			gg.PostMessage("tick")
			gg.SetTimeout(spray, 0) // clamped to the timer minimum
		}
		spray(g)
	})
}

// startWorkerClock spawns the spraying worker and returns the tick
// counter.
func startWorkerClock(g *browser.Global) (*int, error) {
	w, err := g.NewWorker(clockWorkerSrc)
	if err != nil {
		return nil, err
	}
	count := new(int)
	w.SetOnMessage(func(*browser.Global, browser.MessageEvent) { *count++ })
	return count, nil
}

// startTickLoop starts a main-thread setTimeout tick chain; it counts
// elapsed clamp periods while the main thread is otherwise idle (the
// "setTimeout as an implicit clock" channel).
func startTickLoop(g *browser.Global) *int {
	count := new(int)
	var tick func(gg *browser.Global)
	tick = func(gg *browser.Global) {
		*count++
		gg.SetTimeout(tick, 0)
	}
	g.SetTimeout(tick, 0)
	return count
}

// Channel names reported by the harnesses.
const (
	ChannelWorkerTicks = "worker-ticks" // parallel worker onmessage count
	ChannelTickLoop    = "tick-loop"    // setTimeout chain count
	ChannelPerfNow     = "perf-now"     // explicit performance.now delta
	ChannelEdgePad     = "edge-pad"     // clock-edge padding count
	ChannelFrames      = "anim-frames"  // CSS animation frame count
	ChannelCues        = "video-cues"   // WebVTT cue count
	ChannelMaxGap      = "max-gap"      // loopscan maximum event interval
)

// channelTickTotal carries the worker clock's total tick count, used to
// judge whether the implicit channel has usable resolution. The leading
// underscore marks it as harness metadata (the attacker has no wall clock
// to normalize totals against), so MeasureRep skips it.
const channelTickTotal = "_tick-total"

// warmupDelay lets tick sources reach steady state before measuring.
const warmupDelay = 60 * sim.Millisecond

// measureSyncOp measures a synchronous main-thread operation through the
// attacker's two channels: the parallel worker clock (implicit) and
// performance.now (explicit). op runs once inside a single task.
func measureSyncOp(env *defense.Env, op func(*browser.Global), horizon sim.Duration) (map[string]float64, error) {
	b := env.Browser
	installWorkerClock(b)
	res := make(map[string]float64)
	var startErr error
	done := false
	b.RunScript("measure-sync", func(g *browser.Global) {
		cnt, err := startWorkerClock(g)
		if err != nil {
			startErr = errSkip("sync-op", err)
			return
		}
		g.SetTimeout(func(gg *browser.Global) {
			startTicks := *cnt
			startNow := gg.PerformanceNow()
			op(gg)
			endNow := gg.PerformanceNow()
			// Queued worker ticks (those that arrived while op blocked the
			// thread) drain before this closing timeout.
			gg.SetTimeout(func(*browser.Global) {
				res[ChannelWorkerTicks] = float64(*cnt - startTicks)
				res[ChannelPerfNow] = endNow - startNow
				done = true
			}, 0)
		}, warmupDelay)
	})
	if err := b.RunFor(horizon); err != nil {
		return nil, err
	}
	if startErr != nil {
		return nil, startErr
	}
	if !done {
		return nil, errSkip("sync-op", errHorizon)
	}
	return res, nil
}

// errHorizon reports a measurement that did not finish within its horizon.
var errHorizon = errTimeout{}

type errTimeout struct{}

func (errTimeout) Error() string { return "measurement did not complete within horizon" }

// measureAsyncOp measures the duration of an asynchronous operation (a
// network fetch, a resource load) through the setTimeout tick loop and
// performance.now. start must invoke done exactly once when the target
// completes.
func measureAsyncOp(env *defense.Env, start func(g *browser.Global, done func(*browser.Global)), horizon sim.Duration) (map[string]float64, error) {
	b := env.Browser
	res := make(map[string]float64)
	completed := false
	b.RunScript("measure-async", func(g *browser.Global) {
		ticks := startTickLoop(g)
		g.SetTimeout(func(gg *browser.Global) {
			startTicks := *ticks
			startNow := gg.PerformanceNow()
			start(gg, func(g3 *browser.Global) {
				res[ChannelTickLoop] = float64(*ticks - startTicks)
				res[ChannelPerfNow] = g3.PerformanceNow() - startNow
				completed = true
			})
		}, warmupDelay)
	})
	if err := b.RunFor(horizon); err != nil {
		return nil, err
	}
	if !completed {
		return nil, errSkip("async-op", errHorizon)
	}
	return res, nil
}
