package kernel

import (
	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// This file holds the kernel's time sources: timers, intervals, the
// logical-clock-backed explicit clocks, animation frames, and the
// frame-driven tick chains (CSS animation, video cues).

func (k *Kernel) ensureTimerMaps() {
	if k.timerEv == nil {
		k.timerEv = make(map[int]*Event)
	}
	if k.intervals == nil {
		k.intervals = make(map[int]*intervalState)
	}
}

func (k *Kernel) kSetTimeout(cb func(*browser.Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	k.interpose()
	k.ensureTimerMaps()
	ev := k.newEvent("setTimeout", k.predict("setTimeout", d), func(g *browser.Global, _ any) {
		cb(g)
	})
	id := k.native.SetTimeout(func(*browser.Global) { k.confirm(ev, nil) }, d)
	k.trackTimer(id, ev)
	return id
}

// trackTimer maps a native timer or animation-frame ID to its kernel
// event so clearTimeout can find it until the event leaves the queue.
func (k *Kernel) trackTimer(id int, ev *Event) {
	ev.timerID = id
	k.timerEv[id] = ev
}

// retireTimer drops the timer-map entry of an event the dispatcher has
// popped: once the event has left the queue there is nothing left for
// clearTimeout to cancel, and the entry would otherwise keep the event
// and its callbacks alive for the rest of the run.
func (k *Kernel) retireTimer(ev *Event) {
	if ev.timerID != 0 {
		delete(k.timerEv, ev.timerID)
	}
}

// kClearTimer cancels a setTimeout or requestAnimationFrame registration.
func (k *Kernel) kClearTimer(id int) {
	k.ensureTimerMaps()
	ev, ok := k.timerEv[id]
	if !ok {
		return
	}
	delete(k.timerEv, id)
	k.native.ClearTimeout(id)
	k.native.CancelAnimationFrame(id)
	k.cancelEvent(ev)
}

// intervalState tracks one kernelized setInterval chain.
type intervalState struct {
	cancelled bool
	nativeID  int
	ev        *Event
	pred      sim.Time
}

func (k *Kernel) kSetInterval(cb func(*browser.Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	k.ensureTimerMaps()
	delta := k.shared.policy.PredictDelay("setInterval", d)
	st := &intervalState{pred: k.clock.Now()}
	k.nextIntervals++
	id := k.nextIntervals
	k.intervals[id] = st

	var arm func()
	arm = func() {
		st.pred += delta
		ev := k.newEvent("setInterval", st.pred, func(g *browser.Global, _ any) {
			if st.cancelled {
				return
			}
			cb(g)
			if !st.cancelled {
				arm()
			}
		})
		st.ev = ev
		st.nativeID = k.native.SetTimeout(func(*browser.Global) { k.confirm(ev, nil) }, d)
	}
	arm()
	return id
}

func (k *Kernel) kClearInterval(id int) {
	k.ensureTimerMaps()
	st, ok := k.intervals[id]
	if !ok {
		return
	}
	delete(k.intervals, id)
	st.cancelled = true
	k.native.ClearTimeout(st.nativeID)
	k.cancelEvent(st.ev)
}

func (k *Kernel) kPerformanceNow() float64 { return k.clock.DisplayMillis() }

func (k *Kernel) kDateNow() int64 { return k.clock.DisplayUnixMillis() }

func (k *Kernel) kRequestAnimationFrame(cb func(*browser.Global, float64)) int {
	if cb == nil {
		return 0
	}
	k.ensureTimerMaps()
	frame := k.shared.policy.PredictDelay("raf", 0)
	pred := (k.clock.Now()/frame + 1) * frame
	ev := k.newEvent("raf", pred, func(g *browser.Global, _ any) {
		cb(g, k.clock.DisplayMillis())
	})
	id := k.native.RequestAnimationFrame(func(*browser.Global, float64) { k.confirm(ev, nil) })
	k.trackTimer(id, ev)
	return id
}

// --- Frame-driven tick sources (CSS animation, video cues) ---

// tickChain keeps one pending event armed ahead of a periodic native tick
// source so every tick is registration-confirmed like any other event.
type tickChain struct {
	k         *Kernel
	api       string
	delta     sim.Duration
	pred      sim.Time
	ev        *Event
	cancelled bool
	cb        func(*browser.Global, int)
	count     int
}

func (c *tickChain) arm() {
	c.pred += c.delta
	c.ev = c.k.newEvent(c.api, c.pred, func(g *browser.Global, _ any) {
		if c.cancelled {
			return
		}
		c.count++
		cb := c.cb
		if cb != nil {
			cb(g, c.count)
		}
	})
}

// tick confirms the armed event and re-arms for the next native tick.
func (c *tickChain) tick() {
	if c.cancelled {
		return
	}
	ev := c.ev
	c.arm()
	c.k.confirm(ev, nil)
}

func (c *tickChain) cancel() {
	c.cancelled = true
	c.k.cancelEvent(c.ev)
}

func (k *Kernel) kStartCSSAnimation(el *dom.Element, cb func(*browser.Global, int)) int {
	if cb == nil {
		return 0
	}
	if k.animChains == nil {
		k.animChains = make(map[int]*tickChain)
	}
	chain := &tickChain{
		k:     k,
		api:   "animation",
		delta: k.shared.policy.PredictDelay("animation", 0),
		pred:  k.clock.Now(),
		cb:    cb,
	}
	chain.arm()
	id := k.native.StartCSSAnimation(el, func(*browser.Global, int) { chain.tick() })
	k.animChains[id] = chain
	return id
}

func (k *Kernel) kStopCSSAnimation(id int) {
	if chain, ok := k.animChains[id]; ok {
		chain.cancel()
		delete(k.animChains, id)
	}
	k.native.StopCSSAnimation(id)
}

func (k *Kernel) kPlayVideo(cueCb func(*browser.Global, int)) (stop func()) {
	if cueCb == nil {
		return func() {}
	}
	chain := &tickChain{
		k:     k,
		api:   "cue",
		delta: k.shared.policy.PredictDelay("cue", 0),
		pred:  k.clock.Now(),
		cb:    cueCb,
	}
	chain.arm()
	nativeStop := k.native.PlayVideo(func(*browser.Global, int) { chain.tick() })
	return func() {
		chain.cancel()
		nativeStop()
	}
}
