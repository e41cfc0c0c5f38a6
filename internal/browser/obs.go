package browser

import (
	"math"

	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// This file implements the observability callback wrappers installed by
// the public binding delegates when Options.ObsEvents is set. Each
// wrapper emits one trace event at user-callback entry, stamped with the
// in-task cursor time and the registering scope's token, then runs the
// user callback unchanged. Emission never advances simulated time and
// never consults the simulator's RNG, so an obs-on run executes exactly
// the same schedule as an obs-off run.
//
// Tokens are captured at registration: dispatched tasks always receive
// the executing thread's global, so the delivery-time global cannot
// identify who registered the callback. The one exception is
// obsMessageCB, which records the delivery-time token — for message
// handlers the interesting fact is where the message landed.

// obsTimerCB wraps a setTimeout or setInterval callback; Aux carries
// the user-requested delay in virtual nanoseconds (pre-clamp, pre-fuzz —
// what the attacker asked for, not what the defense granted).
func (g *Global) obsTimerCB(cb func(*Global), d sim.Duration, interval bool) func(*Global) {
	if cb == nil {
		return nil
	}
	w := g.browser.takeObsTimer(g.token)
	w.cb, w.delay = cb, d
	if interval {
		w.state = obsInterval
	}
	return w.onTimer
}

// obsRAFCB wraps a requestAnimationFrame callback as a frame tick.
func (g *Global) obsRAFCB(cb func(*Global, float64)) func(*Global, float64) {
	if cb == nil {
		return nil
	}
	w := g.browser.takeObsTimer(g.token)
	w.frameCB = cb
	return w.onFrame
}

// obsTimer is the wrapper of a timer or animation-frame callback. A
// tick loop re-registers on every tick, so these wrappers are pooled:
// each binds its two method values once, when it is made, and a
// one-shot wrapper (setTimeout, requestAnimationFrame) goes back on its
// browser's free list when it fires, before the user callback runs, so
// a callback that re-registers reuses it. That is sound because every
// binding runs a one-shot callback at most once: the native timer table
// frees a timer's slot before firing it, the kernel runs a dispatched
// event's callback once, and the defenses that wrap setTimeout or
// requestAnimationFrame forward the callback once. A wrapper whose
// callback never runs (cleared, shed, quarantined, or fault-panicked
// before dispatch) is never released, so it is never reused. An
// interval's wrapper fires on every tick and is never released.
type obsTimer struct {
	onTimer func(*Global)          // w.fireTimer, bound once
	onFrame func(*Global, float64) // w.fireFrame, bound once
	cb      func(*Global)
	frameCB func(*Global, float64)
	token   int64
	delay   sim.Duration
	state   obsTimerState
	next    *obsTimer // free-list link while released
}

// obsTimerState says how an obsTimer may fire.
type obsTimerState uint8

const (
	obsReleased obsTimerState = iota // on the free list: must not fire
	obsOnce                          // setTimeout or requestAnimationFrame
	obsInterval                      // setInterval: fires every tick
)

// takeObsTimer takes a wrapper off the free list, or makes one, for a
// one-shot registration by the scope with the given token.
func (b *Browser) takeObsTimer(token int64) *obsTimer {
	w := b.obsFree
	if w != nil {
		b.obsFree, w.next = w.next, nil
	} else {
		w = &obsTimer{}
		w.onTimer, w.onFrame = w.fireTimer, w.fireFrame
	}
	w.token, w.state = token, obsOnce
	return w
}

// release puts a fired one-shot wrapper back on b's free list, dropping
// the user callback it held.
func (w *obsTimer) release(b *Browser) {
	w.cb, w.frameCB, w.state = nil, nil, obsReleased
	w.next, b.obsFree = b.obsFree, w
}

// fired checks that w may fire and, for a one-shot wrapper, releases it.
func (w *obsTimer) fired(b *Browser) {
	switch w.state {
	case obsReleased:
		panic("browser: a released timer obs wrapper fired again: a binding ran a one-shot callback twice")
	case obsOnce:
		w.release(b)
	}
}

func (w *obsTimer) fireTimer(gg *Global) {
	cb, ev := w.cb, TraceEvent{
		Kind:     TraceTimerFired,
		At:       gg.thread.Now(),
		ThreadID: gg.thread.id,
		Value:    w.token,
		Aux:      int64(w.delay),
	}
	if w.state == obsInterval {
		ev.Detail = "interval"
	}
	w.fired(gg.browser)
	gg.browser.trace(ev)
	cb(gg)
}

func (w *obsTimer) fireFrame(gg *Global, ts float64) {
	cb, tok := w.frameCB, w.token
	w.fired(gg.browser)
	gg.browser.trace(TraceEvent{
		Kind:     TraceFrameTick,
		At:       gg.thread.Now(),
		ThreadID: gg.thread.id,
		Detail:   "raf",
		Value:    tok,
		Aux:      int64(math.Float64bits(ts)),
	})
	cb(gg, ts)
}

// obsFrameCB wraps an indexed per-frame callback (CSS animation frames,
// WebVTT cues); Aux carries the frame/cue index.
func (g *Global) obsFrameCB(cb func(*Global, int), detail string) func(*Global, int) {
	if cb == nil {
		return nil
	}
	tok := g.token
	return func(gg *Global, idx int) {
		gg.browser.trace(TraceEvent{
			Kind:     TraceFrameTick,
			At:       gg.thread.Now(),
			ThreadID: gg.thread.id,
			Detail:   detail,
			Value:    tok,
			Aux:      int64(idx),
		})
		cb(gg, idx)
	}
}

// obsMessageCB wraps an onmessage handler. The token is the
// delivery-time global's — where the message actually landed — and
// WorkerID is the sending worker (0 for self-posts and frame messages).
func (g *Global) obsMessageCB(cb func(*Global, MessageEvent)) func(*Global, MessageEvent) {
	if cb == nil {
		return nil
	}
	return func(gg *Global, m MessageEvent) {
		gg.browser.trace(TraceEvent{
			Kind:     TraceMessageCallback,
			At:       gg.thread.Now(),
			ThreadID: gg.thread.id,
			WorkerID: m.SourceWorker,
			Value:    gg.token,
		})
		cb(gg, m)
	}
}

// obsLoadCB wraps a resource-load callback (script onload/onerror, image
// onerror).
func (g *Global) obsLoadCB(cb func(*Global), url, detail string) func(*Global) {
	if cb == nil {
		return nil
	}
	tok := g.token
	return func(gg *Global) {
		gg.browser.trace(TraceEvent{
			Kind:     TraceLoadDone,
			At:       gg.thread.Now(),
			ThreadID: gg.thread.id,
			URL:      url,
			Detail:   detail,
			Value:    tok,
		})
		cb(gg)
	}
}

// obsImageCB wraps an image onload callback (which also receives the
// created element).
func (g *Global) obsImageCB(cb func(*Global, *dom.Element), url string) func(*Global, *dom.Element) {
	if cb == nil {
		return nil
	}
	tok := g.token
	return func(gg *Global, el *dom.Element) {
		gg.browser.trace(TraceEvent{
			Kind:     TraceLoadDone,
			At:       gg.thread.Now(),
			ThreadID: gg.thread.id,
			URL:      url,
			Detail:   "image",
			Value:    tok,
		})
		cb(gg, el)
	}
}

// obsFetchCB wraps a fetch completion callback.
func (g *Global) obsFetchCB(cb func(*Response, error), url string) func(*Response, error) {
	if cb == nil {
		return nil
	}
	tok := g.token
	b := g.browser
	th := g.thread
	return func(res *Response, err error) {
		detail := "fetch"
		if err != nil {
			detail = "fetch-error"
		}
		b.trace(TraceEvent{
			Kind:     TraceLoadDone,
			At:       th.Now(),
			ThreadID: th.id,
			URL:      url,
			Detail:   detail,
			Value:    tok,
		})
		cb(res, err)
	}
}

// obsWorker wraps a Worker handle so parent-side onmessage handlers are
// observed like every other callback registration.
type obsWorker struct {
	Worker
	g *Global
}

func (w *obsWorker) SetOnMessage(cb func(*Global, MessageEvent)) {
	w.Worker.SetOnMessage(w.g.obsMessageCB(cb))
}
