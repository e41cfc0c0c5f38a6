package browser

import (
	"fmt"
	"strings"

	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

// workerState is the per-worker bookkeeping shared between a worker's
// thread-side scope and its main-thread handle.
type workerState struct {
	id       int
	src      string
	thread   *Thread
	parent   *Thread
	handle   *WorkerHandle
	released bool // handle dropped (GC analogue)
	inFlight int  // messages posted but not yet delivered

	handleOnMessage func(*Global, MessageEvent)
	handleOnError   func(*Global, *WorkerError)
}

// Worker is the user-space view of a web worker. The native implementation
// is *WorkerHandle; a kernel substitutes its own stub (the paper's Proxy in
// Listing 5) through the NewWorker binding, so user code cannot tell the
// difference.
type Worker interface {
	// ID returns the worker's unique id.
	ID() int
	// Src returns the worker's source name.
	Src() string
	// Alive reports whether the worker is (user-visibly) running.
	Alive() bool
	// Thread returns the worker's underlying thread.
	Thread() *Thread
	// InFlight reports messages posted but not yet delivered.
	InFlight() int
	// PostMessage sends data from the parent to the worker scope.
	PostMessage(data any)
	// PostMessageTransfer sends data with a transferable buffer.
	PostMessageTransfer(data any, buf *SharedBuffer)
	// SetOnMessage installs the parent-side worker→main handler.
	SetOnMessage(cb func(*Global, MessageEvent))
	// SetOnError installs the parent-side error handler.
	SetOnError(cb func(*Global, *WorkerError))
	// Terminate kills the worker.
	Terminate()
	// Release drops the handle as a garbage collector would.
	Release()
}

// WorkerHandle is the native main-thread object representing a worker.
type WorkerHandle struct {
	state *workerState
}

var _ Worker = (*WorkerHandle)(nil)

// ID returns the worker's unique id.
func (w *WorkerHandle) ID() int { return w.state.id }

// Src returns the worker's source name.
func (w *WorkerHandle) Src() string { return w.state.src }

// Alive reports whether the worker thread is still running.
func (w *WorkerHandle) Alive() bool { return !w.state.thread.terminated }

// Thread returns the worker's thread.
func (w *WorkerHandle) Thread() *Thread { return w.state.thread }

// InFlight reports messages posted but not yet delivered.
func (w *WorkerHandle) InFlight() int { return w.state.inFlight }

// PostMessage sends data from the parent to the worker scope.
func (w *WorkerHandle) PostMessage(data any) { w.post(MessageEvent{Data: data}) }

// PostMessageTransfer sends data along with a transferable buffer whose
// ownership moves to the worker (CVE-2014-1488's precondition when going
// the other way).
func (w *WorkerHandle) PostMessageTransfer(data any, buf *SharedBuffer) {
	b := w.state.parent.b
	if buf != nil {
		buf.owner = w.state.thread
		b.trace(TraceEvent{
			Kind: TraceTransferable, ThreadID: w.state.parent.id,
			WorkerID: w.state.id, Value: buf.ID, Detail: "to-worker",
		})
	}
	w.post(MessageEvent{Data: data, Transfer: buf})
}

func (w *WorkerHandle) post(m MessageEvent) {
	st := w.state
	b := st.parent.b
	b.trace(TraceEvent{Kind: TracePostMessage, ThreadID: st.parent.id, WorkerID: st.id, Detail: "to-worker"})
	if st.thread.terminated {
		return
	}
	st.inFlight++
	deliverAt := st.parent.Now() + b.Profile.MessageLatency
	if l := st.thread.postLetter(deliverAt, routeToWorker); l != nil {
		l.msg, l.worker = m, st
	}
}

// SetOnMessage installs the parent-side handler for worker→main messages.
// Setting a handler on a terminated worker dereferences freed engine state
// in vulnerable browsers (CVE-2013-5602); the native layer traces it.
func (w *WorkerHandle) SetOnMessage(cb func(*Global, MessageEvent)) {
	st := w.state
	b := st.parent.b
	detail := "parent"
	if st.thread.terminated {
		detail = "null-deref"
		// Hazard witness: the setter touches the dead worker's freed
		// engine state (CVE-2013-5602's use-after-free).
		b.access(st.parent, "worker", int64(st.id), AccessWrite|AccessGuardian)
	}
	b.access(st.parent, "worker", int64(st.id), AccessWrite)
	b.trace(TraceEvent{Kind: TraceOnMessageSet, ThreadID: st.parent.id, WorkerID: st.id, Detail: detail})
	st.handleOnMessage = cb
}

// SetOnError installs the parent-side error handler (worker.onerror).
func (w *WorkerHandle) SetOnError(cb func(*Global, *WorkerError)) {
	w.state.handleOnError = cb
}

// Terminate kills the worker thread immediately. Messages queued to it are
// dropped; pending fetches become orphaned (the false-termination state
// CVE-2018-5092 requires).
func (w *WorkerHandle) Terminate() {
	st := w.state
	b := st.parent.b
	if st.thread.terminated {
		return
	}
	detail := ""
	if st.inFlight > 0 || st.thread.QueueDepth() > 0 {
		detail = "pending-messages"
	}
	orphans := b.orphanFetches(st.thread)
	if orphans > 0 {
		if detail != "" {
			detail += ","
		}
		detail += "pending-fetch"
	}
	st.thread.terminate()
	if st.inFlight > 0 || orphans > 0 {
		// Hazard witness: terminating with messages or fetches still in
		// flight frees state the pending work will touch (CVE-2014-1719,
		// CVE-2018-5092's precondition). A merely not-yet-started worker
		// (queue depth without in-flight work) is not the hazard.
		b.access(st.parent, "worker", int64(st.id), AccessWrite|AccessGuardian)
	}
	b.access(st.parent, "worker", int64(st.id), AccessWrite)
	b.trace(TraceEvent{
		Kind: TraceWorkerTerminated, ThreadID: st.parent.id,
		WorkerID: st.id, Detail: detail, Value: int64(orphans),
	})
}

// Release drops the handle as a garbage collector would. Releasing while
// messages are still in flight is CVE-2013-6646's trigger.
func (w *WorkerHandle) Release() {
	st := w.state
	b := st.parent.b
	st.released = true
	detail := "idle"
	if st.inFlight > 0 {
		detail = "in-flight"
	}
	b.access(st.parent, "worker", int64(st.id), AccessWrite)
	b.trace(TraceEvent{Kind: TraceWorkerError, ThreadID: st.parent.id, WorkerID: st.id, Detail: "released:" + detail})
}

// nativeNewWorker implements `new Worker(src)`. src is either the name of
// a script registered with RegisterWorkerScript or a URL; cross-origin
// URLs fail with the detailed (leaky) error message of CVE-2014-1487.
func (g *Global) nativeNewWorker(src string) (Worker, error) {
	b := g.browser
	if g.IsWorkerScope() {
		return nil, fmt.Errorf("browser: nested workers are not supported")
	}
	if strings.Contains(src, "://") && !webnet.SameOrigin(src, b.Origin) {
		// Vulnerable native behaviour: error text leaks the cross-origin
		// URL and its resolution details.
		err := &WorkerError{
			Message: fmt.Sprintf("SecurityError: cannot load worker from %s (resolved cross-origin, redirect-chain visible)", src),
			URL:     src,
		}
		// Hazard witness: the leaky error text exposes cross-origin
		// resolution state (CVE-2014-1487).
		b.access(g.thread, "origin", 0, AccessWrite|AccessGuardian)
		b.access(g.thread, "origin", 0, 0)
		b.trace(TraceEvent{Kind: TraceWorkerError, ThreadID: g.thread.id, URL: src, Detail: "cross-origin-create"})
		return nil, err
	}
	script, err := b.workerScript(src)
	if err != nil {
		return nil, err
	}
	b.nextWorker++
	st := &workerState{
		id:     b.nextWorker,
		src:    src,
		parent: g.thread,
	}
	wt := b.newThread(fmt.Sprintf("worker#%d", st.id), st)
	handle := &WorkerHandle{state: st}
	st.handle = handle
	b.trace(TraceEvent{Kind: TraceWorkerCreated, ThreadID: g.thread.id, WorkerID: st.id, URL: src})
	// The worker's script starts after the spawn cost elapses.
	startAt := g.thread.Now() + b.Profile.WorkerSpawnCost
	wt.PostTask(startAt, func(wg *Global) {
		b.trace(TraceEvent{Kind: TraceWorkerReady, ThreadID: wt.id, WorkerID: st.id})
		script(wg)
	})
	return handle, nil
}

// nativePostMessage implements postMessage in a scope: worker scopes post
// to their parent; the main scope posts to itself (window.postMessage).
func (g *Global) nativePostMessage(data any) {
	b := g.browser
	if g.frame != nil {
		g.framePostToParent(data)
		return
	}
	if g.worker == nil {
		// Self-post on the main thread.
		b.trace(TraceEvent{Kind: TracePostMessage, ThreadID: g.thread.id, Detail: "self"})
		deliverAt := g.thread.Now() + b.Profile.MessageLatency
		if l := g.thread.postLetter(deliverAt, routeSelf); l != nil {
			l.msg.Data = data
		}
		return
	}
	st := g.worker
	b.trace(TraceEvent{Kind: TracePostMessage, ThreadID: g.thread.id, WorkerID: st.id, Detail: "to-parent"})
	rt := routeToParent
	if b.tornDown {
		// Vulnerable native behaviour: delivery proceeds into a torn-down
		// document (CVE-2010-4576).
		rt = routeAfterTeardown
	}
	st.inFlight++
	deliverAt := g.thread.Now() + b.Profile.MessageLatency
	if l := st.parent.postLetter(deliverAt, rt); l != nil {
		l.msg.Data, l.msg.SourceWorker, l.worker = data, st.id, st
	}
}

// nativeSetOnMessage installs the current scope's message handler. Frame
// scopes share their thread with the window, so their handlers live on
// the frame state rather than the thread.
func (g *Global) nativeSetOnMessage(cb func(*Global, MessageEvent)) {
	g.browser.trace(TraceEvent{Kind: TraceOnMessageSet, ThreadID: g.thread.id, Detail: "self"})
	if g.frame != nil {
		g.frame.setOnMessage(cb)
		return
	}
	if cb == nil {
		g.thread.setOnMessage(nil)
		return
	}
	g.thread.setOnMessage(func(gg *Global, m MessageEvent) { cb(gg, m) })
}

// reportWorkerError routes a worker-scope error to the parent-side
// onerror handler, carrying the (possibly leaky) message text.
func (g *Global) reportWorkerError(err *WorkerError) {
	st := g.worker
	if st == nil || st.handleOnError == nil {
		return
	}
	b := g.browser
	deliverAt := g.thread.Now() + b.Profile.MessageLatency
	st.parent.PostTask(deliverAt, func(pg *Global) {
		st.handleOnError(pg, err)
	})
}

// nativeWorkerLocation returns the worker's resolved location. When the
// worker's source was served through a redirect, the vulnerable native
// layer exposes the full post-redirect URL — including cross-origin
// targets — which is the disclosure of CVE-2011-1190.
func (g *Global) nativeWorkerLocation() string {
	if g.worker == nil {
		return ""
	}
	b := g.browser
	if final, ok := b.redirects[g.worker.src]; ok && !webnet.SameOrigin(final, b.Origin) {
		// Hazard witness: the post-redirect URL exposes cross-origin
		// state (CVE-2011-1190).
		b.access(g.thread, "origin", 0, AccessWrite|AccessGuardian)
		b.access(g.thread, "origin", 0, 0)
		b.trace(TraceEvent{Kind: TraceNavigationError, ThreadID: g.thread.id, WorkerID: g.worker.id, URL: final, Detail: "location-leak"})
		return final
	}
	return b.Origin + "/" + g.worker.src
}

// WorkerSpawnCost exposes the profile's worker creation cost (used by the
// worker-creation benchmark).
func (b *Browser) WorkerSpawnCost() sim.Duration { return b.Profile.WorkerSpawnCost }
