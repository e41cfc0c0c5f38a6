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

	// timers holds the IDs of live timeout, interval and animation-frame
	// registrations; clearing one deletes it, and a queued firing whose
	// ID is gone does nothing.
	timers      map[int]struct{}
	nextTimerID int

	microtasks []func(*Global)

	cssAnims   map[int]*cssAnimation
	nextAnimID int
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
		cb = g.obsTimerCB(cb, d, "")
	}
	return g.bindings.SetTimeout(cb, d)
}

// ClearTimeout cancels a pending timeout.
func (g *Global) ClearTimeout(id int) { g.bindings.ClearTimeout(id) }

// SetInterval schedules cb repeatedly every d.
func (g *Global) SetInterval(cb func(*Global), d sim.Duration) int {
	if g.browser.obsEvents {
		cb = g.obsTimerCB(cb, d, "interval")
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

// newTimer registers a live timer and returns its ID.
func (g *Global) newTimer() int {
	if g.timers == nil {
		g.timers = make(map[int]struct{})
	}
	g.nextTimerID++
	g.timers[g.nextTimerID] = struct{}{}
	return g.nextTimerID
}

// timerLive reports whether timer id is registered and not cleared.
func (g *Global) timerLive(id int) bool {
	_, ok := g.timers[id]
	return ok
}

func (g *Global) nativeSetTimeout(cb func(*Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	if d < g.browser.Profile.TimerClampMin {
		d = g.browser.Profile.TimerClampMin
	}
	id := g.newTimer()
	g.thread.PostTask(g.thread.Now()+d, func(gg *Global) {
		if !g.timerLive(id) {
			return
		}
		delete(g.timers, id)
		cb(gg)
		gg.drainMicrotasks()
	})
	return id
}

func (g *Global) nativeSetInterval(cb func(*Global), d sim.Duration) int {
	if cb == nil {
		return 0
	}
	if d < g.browser.Profile.TimerClampMin {
		d = g.browser.Profile.TimerClampMin
	}
	id := g.newTimer()
	var tick func(gg *Global)
	tick = func(gg *Global) {
		if !g.timerLive(id) {
			return
		}
		cb(gg)
		gg.drainMicrotasks()
		if g.timerLive(id) {
			g.thread.PostTask(gg.thread.Now()+d, tick)
		}
	}
	g.thread.PostTask(g.thread.Now()+d, tick)
	return id
}

func (g *Global) nativeClearTimer(id int) { delete(g.timers, id) }

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

func (g *Global) nativeRequestAnimationFrame(cb func(*Global, float64)) int {
	if cb == nil {
		return 0
	}
	id := g.newTimer()
	period := g.browser.Profile.FramePeriod
	now := g.thread.Now()
	next := (now/period + 1) * period
	g.thread.PostTask(next, func(gg *Global) {
		if !g.timerLive(id) {
			return
		}
		delete(g.timers, id)
		cb(gg, gg.bindings.PerformanceNow())
		gg.drainMicrotasks()
	})
	return id
}

func (g *Global) drainMicrotasks() {
	for len(g.microtasks) > 0 {
		mt := g.microtasks[0]
		g.microtasks = g.microtasks[1:]
		mt(g)
	}
}
