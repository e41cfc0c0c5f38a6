package kernel

import (
	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// This file holds the kernel's time sources: timers, intervals, the
// logical-clock-backed explicit clocks, animation frames, and the
// frame-driven tick chains (CSS animation, video cues).

// kSetTimeout registers a timeout event and arms its native timer with
// the event itself as the confirmation target. The page's timer ID is
// the event's token, so clearTimeout finds the event for as long as it
// is queued.
func (k *Kernel) kSetTimeout(cb func(*browser.Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	k.interpose()
	ev := k.newEvent("setTimeout", k.predict("setTimeout", d))
	ev.kind, ev.timeout = kindTimeout, cb
	ev.nativeID = k.g.ArmTimeout(ev, ev.token(), d)
	return int(ev.token())
}

// kClearTimer cancels a setTimeout or requestAnimationFrame registration
// whose event is still queued. Once the event has left the queue its
// token is spent, and the ID clears nothing.
func (k *Kernel) kClearTimer(id int) {
	ev := k.queue.queued(uint64(id))
	if ev == nil || (ev.kind != kindTimeout && ev.kind != kindFrame) {
		return
	}
	k.native.ClearTimeout(ev.nativeID)
	k.cancelEvent(ev)
}

// intervalState tracks one kernelized setInterval chain. Each tick is
// one registration-confirmed event whose native timer is re-armed when
// the previous tick dispatches.
type intervalState struct {
	k         *Kernel
	cb        func(*browser.Global)
	d         sim.Duration // requested delay, re-armed natively every tick
	delta     sim.Duration // predicted spacing of the ticks
	cancelled bool
	nativeID  int
	ev        evRef
	pred      sim.Time
}

// arm registers the chain's next tick.
func (st *intervalState) arm() {
	st.pred += st.delta
	ev := st.k.newEvent("setInterval", st.pred)
	ev.kind, ev.ticker = kindTicker, st
	st.ev = refOf(ev)
	st.nativeID = st.k.g.ArmTimeout(ev, ev.token(), st.d)
}

// fire is a tick's dispatch: run the user callback, then arm the next.
func (st *intervalState) fire(g *browser.Global) {
	if st.cancelled {
		return
	}
	st.cb(g)
	if !st.cancelled {
		st.arm()
	}
}

func (k *Kernel) kSetInterval(cb func(*browser.Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	if k.intervals == nil {
		k.intervals = make(map[int]*intervalState)
	}
	st := &intervalState{k: k, cb: cb, d: d, delta: k.shared.policy.PredictDelay("setInterval", d), pred: k.clock.Now()}
	k.nextIntervals++
	id := k.nextIntervals
	k.intervals[id] = st
	st.arm()
	return id
}

func (k *Kernel) kClearInterval(id int) {
	st, ok := k.intervals[id]
	if !ok {
		return
	}
	delete(k.intervals, id)
	st.cancelled = true
	k.native.ClearTimeout(st.nativeID)
	k.cancelEvent(st.ev.get())
}

func (k *Kernel) kPerformanceNow() float64 { return k.clock.DisplayMillis() }

func (k *Kernel) kDateNow() int64 { return k.clock.DisplayUnixMillis() }

func (k *Kernel) kRequestAnimationFrame(cb func(*browser.Global, float64)) int {
	if cb == nil {
		return 0
	}
	frame := k.shared.policy.PredictDelay("raf", 0)
	pred := (k.clock.Now()/frame + 1) * frame
	ev := k.newEvent("raf", pred)
	ev.kind, ev.frame = kindFrame, cb
	ev.nativeID = k.g.ArmFrame(ev, ev.token())
	return int(ev.token())
}

// --- Frame-driven tick sources (CSS animation, video cues) ---

// tickChain keeps one pending event armed ahead of a periodic native tick
// source so every tick is registration-confirmed like any other event.
type tickChain struct {
	k         *Kernel
	api       string
	delta     sim.Duration
	pred      sim.Time
	ev        evRef
	cancelled bool
	cb        func(*browser.Global, int)
	count     int
}

func (c *tickChain) arm() {
	c.pred += c.delta
	ev := c.k.newEvent(c.api, c.pred)
	ev.kind, ev.ticker = kindTicker, c
	c.ev = refOf(ev)
}

// fire is a tick's dispatch.
func (c *tickChain) fire(g *browser.Global) {
	if c.cancelled {
		return
	}
	c.count++
	cb := c.cb
	if cb != nil {
		cb(g, c.count)
	}
}

// tick confirms the armed event and re-arms for the next native tick.
func (c *tickChain) tick() {
	if c.cancelled {
		return
	}
	armed := c.ev
	c.arm()
	if ev := armed.get(); ev != nil {
		c.k.confirm(ev)
	}
}

func (c *tickChain) cancel() {
	c.cancelled = true
	c.k.cancelEvent(c.ev.get())
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
