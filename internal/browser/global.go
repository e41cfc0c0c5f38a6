package browser

import (
	"errors"
	"math"

	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// ErrFrozen is returned when user-space code tries to redefine bindings
// after a defense froze them (the paper's Object.freeze hardening).
var ErrFrozen = errors.New("browser: bindings are frozen")

// MessageEvent is the payload delivered to onmessage handlers.
type MessageEvent struct {
	Data         any
	SourceWorker int           // worker ID for worker→main messages (0 otherwise)
	Transfer     *SharedBuffer // transferred buffer, if any
	Origin       string        // sender origin for cross-context (frame) messages
}

// WorkerError is delivered to onerror handlers; its Message is the channel
// through which CVE-2014-1487 / CVE-2015-7215 leak cross-origin details.
type WorkerError struct {
	Message string
	URL     string
}

func (e *WorkerError) Error() string { return e.Message }

// Bindings is the table of native entry points reachable from user space —
// the Go rendition of the JavaScript global's API surface. A defense
// interposes by replacing entries before user code runs (kernel API calls),
// wrapping the message-handler setter (kernel traps), or returning wrapped
// worker objects (user-space stubs). Unset optional entries fall back to
// native behaviour.
type Bindings struct {
	SetTimeout    func(cb func(*Global), d sim.Duration) int
	ClearTimeout  func(id int)
	SetInterval   func(cb func(*Global), d sim.Duration) int
	ClearInterval func(id int)

	PerformanceNow func() float64 // milliseconds
	DateNow        func() int64   // milliseconds

	RequestAnimationFrame func(cb func(*Global, float64)) int
	CancelAnimationFrame  func(id int)

	NewWorker    func(src string) (Worker, error)
	PostMessage  func(data any)                       // worker scope → parent
	SetOnMessage func(cb func(*Global, MessageEvent)) // self scope handler

	Fetch         func(url string, opts FetchOptions, cb func(*Response, error)) FetchID
	AbortFetch    func(id FetchID)
	XHR           func(url string) (string, error)
	ImportScripts func(url string) error

	IndexedDBOpen  func(name string) (*IDBStore, error)
	WorkerLocation func() string

	DOMSetAttribute func(el *dom.Element, name, value string)
	DOMGetAttribute func(el *dom.Element, name string) (string, bool)

	CreateFrame func(origin string) (Frame, error)

	LoadScript        func(url string, onload func(*Global), onerror func(*Global))
	LoadImage         func(url string, onload func(*Global, *dom.Element), onerror func(*Global))
	StartCSSAnimation func(el *dom.Element, cb func(*Global, int)) int
	StopCSSAnimation  func(id int)
	PlayVideo         func(cueCb func(*Global, int)) (stop func())

	SharedBufferRead  func(buf *SharedBuffer, idx int) (int64, error)
	SharedBufferWrite func(buf *SharedBuffer, idx int, v int64) error
	TransferToParent  func(data any, buf *SharedBuffer) error
}

// Global is a JavaScript global object: the `window` of the main thread or
// the `self` of a worker scope. All user-space code runs against one.
type Global struct {
	browser  *Browser
	thread   *Thread
	worker   *workerState // non-nil in worker scopes
	frame    *frameState  // non-nil in iframe scopes
	document *dom.Document

	bindings *Bindings
	frozen   bool

	// token is the browser-unique observability identity of this global
	// (main window = 1). Obs events carry the registering scope's token
	// so the forensics layer can tell whose callback fired even though
	// dispatched tasks always receive the thread's global.
	token int64

	// timers is the scope's timer table: its timeouts, intervals,
	// animation frames, CSS animations and video cues. A timer's ID is
	// its slot+generation handle, so clearing one frees its slot and a
	// queued firing for it finds a newer generation and does nothing.
	// freeTimers lists the reusable slots.
	timers     []timer
	freeTimers []int32

	microtasks []func(*Global)
}

// Browser returns the owning browser.
func (g *Global) Browser() *Browser { return g.browser }

// Thread returns the thread this global belongs to.
func (g *Global) Thread() *Thread { return g.thread }

// IsWorkerScope reports whether this global is a worker's `self`.
func (g *Global) IsWorkerScope() bool { return g.worker != nil }

// Document returns the DOM document (main thread only; nil in workers).
func (g *Global) Document() *dom.Document { return g.document }

// Bindings exposes the mutable bindings table. Defenses use it during
// scope installation; user-space code must go through Redefine, which
// respects freezing.
func (g *Global) Bindings() *Bindings { return g.bindings }

// Redefine lets user-space code overwrite bindings (the paper's
// "self-modifying code" adversary). It fails once a defense froze the
// table.
func (g *Global) Redefine(mutate func(*Bindings)) error {
	if g.frozen {
		return ErrFrozen
	}
	mutate(g.bindings)
	return nil
}

// Freeze locks the bindings table against user-space redefinition, the
// analogue of the paper's Object.freeze on system prototypes.
func (g *Global) Freeze() { g.frozen = true }

// Frozen reports whether the bindings table is frozen.
func (g *Global) Frozen() bool { return g.frozen }

// --- Public API surface (delegates through the bindings table) ---

// SetTimeout schedules cb after at least d of virtual time.
func (g *Global) SetTimeout(cb func(*Global), d sim.Duration) int {
	if g.browser.obsEvents {
		cb = g.obsTimerCB(cb, d, false)
	}
	return g.bindings.SetTimeout(cb, d)
}

// ClearTimeout cancels a pending timeout.
func (g *Global) ClearTimeout(id int) { g.bindings.ClearTimeout(id) }

// SetInterval schedules cb repeatedly every d.
func (g *Global) SetInterval(cb func(*Global), d sim.Duration) int {
	if g.browser.obsEvents {
		cb = g.obsTimerCB(cb, d, true)
	}
	return g.bindings.SetInterval(cb, d)
}

// ClearInterval cancels a repeating timer.
func (g *Global) ClearInterval(id int) { g.bindings.ClearInterval(id) }

// PerformanceNow returns the high-resolution clock in milliseconds.
func (g *Global) PerformanceNow() float64 {
	v := g.bindings.PerformanceNow()
	if g.browser.obsEvents {
		g.browser.trace(TraceEvent{
			Kind:     TraceClockRead,
			At:       g.thread.Now(),
			ThreadID: g.thread.id,
			Value:    g.token,
			Aux:      int64(math.Float64bits(v)),
		})
	}
	return v
}

// DateNow returns the wall clock in whole milliseconds.
func (g *Global) DateNow() int64 {
	v := g.bindings.DateNow()
	if g.browser.obsEvents {
		g.browser.trace(TraceEvent{
			Kind:     TraceClockRead,
			At:       g.thread.Now(),
			ThreadID: g.thread.id,
			Detail:   "date",
			Value:    g.token,
			Aux:      v,
		})
	}
	return v
}

// RequestAnimationFrame schedules cb at the next frame boundary.
func (g *Global) RequestAnimationFrame(cb func(*Global, float64)) int {
	if g.browser.obsEvents {
		cb = g.obsRAFCB(cb)
	}
	return g.bindings.RequestAnimationFrame(cb)
}

// CancelAnimationFrame cancels a pending animation frame callback.
func (g *Global) CancelAnimationFrame(id int) { g.bindings.CancelAnimationFrame(id) }

// NewWorker spawns a web worker from a registered script or URL.
func (g *Global) NewWorker(src string) (Worker, error) {
	w, err := g.bindings.NewWorker(src)
	if g.browser.obsEvents && w != nil && err == nil {
		w = &obsWorker{Worker: w, g: g}
	}
	return w, err
}

// PostMessage sends data from a worker scope to its parent. On the main
// thread it is a self-post (window.postMessage to itself).
func (g *Global) PostMessage(data any) { g.bindings.PostMessage(data) }

// SetOnMessage installs this scope's message handler. This is the paper's
// canonical kernel-trap site (the onmessage setter).
func (g *Global) SetOnMessage(cb func(*Global, MessageEvent)) {
	if g.browser.obsEvents {
		cb = g.obsMessageCB(cb)
	}
	g.bindings.SetOnMessage(cb)
}

// Fetch starts a network request and invokes cb on completion or error.
func (g *Global) Fetch(url string, opts FetchOptions, cb func(*Response, error)) FetchID {
	if g.browser.obsEvents {
		cb = g.obsFetchCB(cb, url)
	}
	return g.bindings.Fetch(url, opts, cb)
}

// XHR performs a synchronous-style XMLHttpRequest and returns the body.
func (g *Global) XHR(url string) (string, error) { return g.bindings.XHR(url) }

// ImportScripts synchronously loads a script into a worker scope.
func (g *Global) ImportScripts(url string) error { return g.bindings.ImportScripts(url) }

// IndexedDBOpen opens (creating if needed) an IndexedDB store.
func (g *Global) IndexedDBOpen(name string) (*IDBStore, error) { return g.bindings.IndexedDBOpen(name) }

// WorkerLocation returns the worker's effective location (worker scopes
// only; "" elsewhere).
func (g *Global) WorkerLocation() string { return g.bindings.WorkerLocation() }

// SharedBufferRead reads one slot of a shared buffer.
func (g *Global) SharedBufferRead(buf *SharedBuffer, idx int) (int64, error) {
	return g.bindings.SharedBufferRead(buf, idx)
}

// SharedBufferWrite writes one slot of a shared buffer.
func (g *Global) SharedBufferWrite(buf *SharedBuffer, idx int, v int64) error {
	return g.bindings.SharedBufferWrite(buf, idx, v)
}

// QueueMicrotask runs cb at the end of the current task, before the next
// task is dispatched.
func (g *Global) QueueMicrotask(cb func(*Global)) {
	if cb == nil {
		return
	}
	g.microtasks = append(g.microtasks, cb)
}

// Busy performs synchronous computation costing d of virtual time.
func (g *Global) Busy(d sim.Duration) { g.thread.advance(d) }

// BusyIters runs n iterations of a cheap counting loop (the clock-edge
// attack's `i++`), advancing virtual time accordingly.
func (g *Global) BusyIters(n int) {
	if n <= 0 {
		return
	}
	g.thread.advance(sim.Duration(n) * g.browser.Profile.BusyLoopPerIter)
}

// --- Native binding implementations ---

// nativeBindings builds the browser's unmediated API table for a scope.
func nativeBindings(g *Global) *Bindings {
	return &Bindings{
		SetTimeout:            g.nativeSetTimeout,
		ClearTimeout:          g.nativeClearTimer,
		SetInterval:           g.nativeSetInterval,
		ClearInterval:         g.nativeClearTimer,
		PerformanceNow:        g.nativePerformanceNow,
		DateNow:               g.nativeDateNow,
		RequestAnimationFrame: g.nativeRequestAnimationFrame,
		CancelAnimationFrame:  g.nativeClearTimer,
		NewWorker:             g.nativeNewWorker,
		PostMessage:           g.nativePostMessage,
		SetOnMessage:          g.nativeSetOnMessage,
		Fetch:                 g.nativeFetch,
		AbortFetch:            g.nativeAbortFetch,
		XHR:                   g.nativeXHR,
		ImportScripts:         g.nativeImportScripts,
		IndexedDBOpen:         g.nativeIndexedDBOpen,
		WorkerLocation:        g.nativeWorkerLocation,
		DOMSetAttribute:       g.nativeDOMSetAttribute,
		DOMGetAttribute:       g.nativeDOMGetAttribute,
		CreateFrame:           g.nativeCreateFrame,
		LoadScript:            g.nativeLoadScript,
		LoadImage:             g.nativeLoadImage,
		StartCSSAnimation:     g.nativeStartCSSAnimation,
		StopCSSAnimation:      g.nativeStopCSSAnimation,
		PlayVideo:             g.nativePlayVideo,
		SharedBufferRead:      g.nativeSharedBufferRead,
		SharedBufferWrite:     g.nativeSharedBufferWrite,
		TransferToParent:      g.nativeTransferToParent,
	}
}

// Target receives a typed native firing on behalf of a kernel. A kernel
// arms a native timer or animation frame with itself as the target
// instead of a callback, and the browser fires it with the token given
// at arming, so a target kept in pooled storage can tell a late firing
// from its storage's next occupant.
type Target interface {
	Fire(token uint64)
}

// timerKind says what a timer slot holds; 0 marks a free slot.
type timerKind uint8

const (
	timerTimeout timerKind = iota + 1
	timerInterval
	timerFrame
	timerAnimation
	timerCue
)

// timer is one slot of a scope's timer table.
type timer struct {
	gen    uint32
	kind   timerKind
	period sim.Duration           // interval, animation and cue period
	at     sim.Time               // arrival of an animation's or cue's next tick
	count  int                    // animation frames or cues fired so far
	cb     func(*Global)          // timeout and interval callback
	frame  func(*Global, float64) // animation-frame callback
	tick   func(*Global, int)     // animation and cue callback
	target Target                 // kernel target of a timeout or frame
	token  uint64                 // handed back to target
}

// newTimer takes a free slot of the timer table for a timer of the given
// kind and returns its handle, with the slot for the caller to fill in.
// The pointer is valid until the table next grows.
func (g *Global) newTimer(kind timerKind) (*timer, uint64) {
	var slot int32
	if n := len(g.freeTimers); n > 0 {
		slot = g.freeTimers[n-1]
		g.freeTimers = g.freeTimers[:n-1]
	} else {
		slot = int32(len(g.timers))
		g.timers = append(g.timers, timer{gen: 1})
	}
	tm := &g.timers[slot]
	tm.kind = kind
	return tm, slotHandle(slot, tm.gen)
}

// liveTimer returns the slot of the timer handle h names, or -1 once
// that timer is cleared or spent.
func (g *Global) liveTimer(h uint64) int32 {
	slot, gen := splitHandle(h)
	if slot < 0 || int(slot) >= len(g.timers) || g.timers[slot].gen != gen || g.timers[slot].kind == 0 {
		return -1
	}
	return slot
}

// freeTimer retires a slot's timer. Advancing the generation makes every
// handle to it stale.
func (g *Global) freeTimer(slot int32) {
	tm := &g.timers[slot]
	*tm = timer{gen: nextGen(tm.gen)}
	g.freeTimers = append(g.freeTimers, slot)
}

// queueTimer queues a firing of timer h at `at` and returns the timer's
// ID.
func (g *Global) queueTimer(h uint64, at sim.Time) int {
	g.thread.post(task{arrival: at, scope: g, handle: h})
	return int(h)
}

// fireTimer runs the firing task of timer h, registered in scope s, on
// the thread's global gg: a frame scope's timers fire with the window's
// global, as every task on the main thread does.
func (s *Global) fireTimer(gg *Global, h uint64) {
	slot := s.liveTimer(h)
	if slot < 0 {
		return
	}
	// Callbacks may register timers and grow the table, so read what a
	// firing needs before running one, and index the table again after.
	tm := &s.timers[slot]
	switch tm.kind {
	case timerTimeout, timerFrame:
		cb, frame, target, token := tm.cb, tm.frame, tm.target, tm.token
		s.freeTimer(slot)
		switch {
		case target != nil:
			// A kernel target reads its own clock at dispatch, so its
			// frame skips the clock read below; the kernel's
			// performance.now binding has no side effect to keep.
			target.Fire(token)
		case cb != nil:
			cb(gg)
		default:
			frame(gg, gg.bindings.PerformanceNow())
		}
		gg.drainMicrotasks()
	case timerInterval:
		cb, period := tm.cb, tm.period
		cb(gg)
		gg.drainMicrotasks()
		if s.liveTimer(h) >= 0 {
			s.queueTimer(h, gg.thread.Now()+period)
		}
	case timerAnimation, timerCue:
		tm.count++
		tick, count, next := tm.tick, tm.count, tm.at+tm.period
		tick(gg, count)
		if s.liveTimer(h) >= 0 {
			s.timers[slot].at = next
			s.queueTimer(h, next)
		}
	}
}

// clampTimer applies the browser's minimum timer delay.
func (g *Global) clampTimer(d sim.Duration) sim.Duration {
	if d < g.browser.Profile.TimerClampMin {
		return g.browser.Profile.TimerClampMin
	}
	return d
}

// nextFrame returns the next animation-frame boundary after now.
func (g *Global) nextFrame() sim.Time {
	period := g.browser.Profile.FramePeriod
	return (g.thread.Now()/period + 1) * period
}

func (g *Global) nativeSetTimeout(cb func(*Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	tm, h := g.newTimer(timerTimeout)
	tm.cb = cb
	return g.queueTimer(h, g.thread.Now()+g.clampTimer(d))
}

func (g *Global) nativeSetInterval(cb func(*Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	d = g.clampTimer(d)
	tm, h := g.newTimer(timerInterval)
	tm.cb, tm.period = cb, d
	return g.queueTimer(h, g.thread.Now()+d)
}

// nativeClearTimer cancels a timeout, interval or animation frame. An ID
// that names another kind of timer, or a spent one, clears nothing.
func (g *Global) nativeClearTimer(id int) {
	if slot := g.liveTimer(uint64(id)); slot >= 0 && g.timers[slot].kind <= timerFrame {
		g.freeTimer(slot)
	}
}

func (g *Global) nativeRequestAnimationFrame(cb func(*Global, float64)) int {
	if cb == nil {
		return 0
	}
	tm, h := g.newTimer(timerFrame)
	tm.frame = cb
	return g.queueTimer(h, g.nextFrame())
}

// ArmTimeout arms a native one-shot timer that fires t with token after
// d, clamped as setTimeout clamps. It is the typed entry point a kernel
// confirms through, and it always reaches the native timer, whatever the
// bindings table holds; pages schedule through SetTimeout. ClearTimeout's
// native binding cancels it.
func (g *Global) ArmTimeout(t Target, token uint64, d sim.Duration) int {
	tm, h := g.newTimer(timerTimeout)
	tm.target, tm.token = t, token
	return g.queueTimer(h, g.thread.Now()+g.clampTimer(d))
}

// ArmFrame is ArmTimeout for the next animation frame. The target gets
// no timestamp: a kernel reads its own clock at dispatch.
func (g *Global) ArmFrame(t Target, token uint64) int {
	tm, h := g.newTimer(timerFrame)
	tm.target, tm.token = t, token
	return g.queueTimer(h, g.nextFrame())
}

func (g *Global) nativePerformanceNow() float64 {
	now := g.thread.Now()
	gran := g.browser.Profile.PerfNowGranularity
	if gran > 0 {
		now = now / gran * gran
	}
	return now.Milliseconds()
}

func (g *Global) nativeDateNow() int64 {
	return int64(g.thread.Now() / sim.Millisecond)
}

func (g *Global) drainMicrotasks() {
	for len(g.microtasks) > 0 {
		mt := g.microtasks[0]
		g.microtasks = g.microtasks[1:]
		mt(g)
	}
}
