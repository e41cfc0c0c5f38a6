package browser

import (
	"fmt"

	"jskernel/internal/dom"
	"jskernel/internal/webnet"
)

// This file implements iframes: additional browsing contexts that share
// the main thread but have their own global scope, document, and origin.
// The paper's kernel "injects the JSKernel kernel into every new
// JavaScript context, such as a newly-opened window and an iframe" (§VI);
// frames created here go through the browser's scope installer, so a
// kernelized browser kernelizes frames automatically.

// Frame is the user-space handle to an embedded browsing context — the
// analogue of an <iframe> element's contentWindow. The native
// implementation is *FrameHandle; a kernel substitutes a stub through the
// CreateFrame binding.
type Frame interface {
	// ID returns the frame's unique id.
	ID() int
	// Origin returns the frame document's origin.
	Origin() string
	// Attached reports whether the frame is still in the document.
	Attached() bool
	// Scope returns the frame's global scope (for loading its content).
	Scope() *Global
	// PostMessage delivers data to the frame's onmessage handler if
	// targetOrigin matches the frame's origin ("*" matches anything) —
	// window.postMessage semantics.
	PostMessage(data any, targetOrigin string)
	// RunScript schedules script execution inside the frame's scope.
	RunScript(name string, script Script)
	// Remove detaches the frame, tearing its context down.
	Remove()
}

// frameState is the shared bookkeeping for one frame.
type frameState struct {
	id       int
	origin   string
	parent   *Global
	scope    *Global
	attached bool

	onMessage func(*Global, MessageEvent) // frame-scope handler
	inbox     []MessageEvent
}

// FrameHandle is the native frame implementation.
type FrameHandle struct {
	state *frameState
}

var _ Frame = (*FrameHandle)(nil)

// ID returns the frame's unique id.
func (f *FrameHandle) ID() int { return f.state.id }

// Origin returns the frame document's origin.
func (f *FrameHandle) Origin() string { return f.state.origin }

// Attached reports whether the frame is still in the document.
func (f *FrameHandle) Attached() bool { return f.state.attached }

// Scope returns the frame's global scope.
func (f *FrameHandle) Scope() *Global { return f.state.scope }

// PostMessage delivers data into the frame (window.postMessage).
func (f *FrameHandle) PostMessage(data any, targetOrigin string) {
	st := f.state
	b := st.parent.browser
	if !st.attached {
		return
	}
	if targetOrigin != "*" && targetOrigin != st.origin {
		// Real browsers drop mis-targeted messages silently.
		return
	}
	b.trace(TraceEvent{Kind: TracePostMessage, ThreadID: st.parent.thread.id, Detail: "to-frame", Value: int64(st.id)})
	deliverAt := st.parent.thread.Now() + b.Profile.MessageLatency
	if l := st.parent.thread.postLetter(deliverAt, routeToFrame); l != nil {
		l.msg.Data, l.msg.Origin, l.frame = data, b.Origin, st
	}
}

// RunScript schedules script execution inside the frame. Like
// Browser.RunScript, the name is a label the event loop does not record.
func (f *FrameHandle) RunScript(name string, script Script) {
	st := f.state
	if !st.attached || script == nil {
		return
	}
	scope := st.scope
	st.parent.thread.PostTask(st.parent.thread.Now(), func(*Global) {
		if st.attached {
			script(scope)
		}
	})
}

// Remove detaches the frame.
func (f *FrameHandle) Remove() {
	st := f.state
	if !st.attached {
		return
	}
	st.attached = false
	st.parent.browser.trace(TraceEvent{
		Kind: TraceDocumentTeardown, ThreadID: st.parent.thread.id,
		Detail: "frame", Value: int64(st.id),
	})
}

// deliver hands a message to the frame's handler or parks it.
func (st *frameState) deliver(m MessageEvent) {
	if st.onMessage == nil {
		st.inbox = append(st.inbox, m)
		return
	}
	st.onMessage(st.scope, m)
}

// CreateFrame embeds a new browsing context with the given origin. Only
// window scopes (main thread, non-frame) can create frames.
func (g *Global) CreateFrame(origin string) (Frame, error) {
	return g.bindings.CreateFrame(origin)
}

// nativeCreateFrame builds the frame scope and applies the browser's
// scope installer, mirroring document insertion of an <iframe>.
func (g *Global) nativeCreateFrame(origin string) (Frame, error) {
	b := g.browser
	if g.IsWorkerScope() {
		return nil, fmt.Errorf("browser: workers cannot create frames")
	}
	if origin == "" {
		origin = b.Origin
	}
	if webnet.OriginOf(origin+"/") == "" {
		return nil, fmt.Errorf("browser: invalid frame origin %q", origin)
	}
	b.nextFrame++
	st := &frameState{
		id:       b.nextFrame,
		origin:   origin,
		parent:   g,
		attached: true,
	}
	scope := &Global{
		browser:  b,
		thread:   g.thread,
		document: dom.NewDocument(),
		frame:    st,
	}
	b.nextScopeToken++
	scope.token = b.nextScopeToken
	scope.bindings = nativeBindings(scope)
	st.scope = scope
	if b.installScope != nil {
		b.installScope(scope)
	}
	// The parent document records the embedding.
	if doc := g.Document(); doc != nil {
		el := doc.CreateElement("iframe")
		el.SetAttribute("src", origin+"/")
		_ = doc.Body().AppendChild(el)
	}
	g.thread.advance(b.Profile.FrameCreateCost)
	return &FrameHandle{state: st}, nil
}

// IsFrameScope reports whether this global is an embedded frame's scope.
func (g *Global) IsFrameScope() bool { return g.frame != nil }

// FrameOrigin returns the frame's origin for frame scopes, "" otherwise.
func (g *Global) FrameOrigin() string {
	if g.frame == nil {
		return ""
	}
	return g.frame.origin
}

// frameSetOnMessage installs the frame scope's message handler and drains
// parked messages.
func (st *frameState) setOnMessage(cb func(*Global, MessageEvent)) {
	st.onMessage = cb
	if cb == nil || len(st.inbox) == 0 {
		return
	}
	queued := st.inbox
	st.inbox = nil
	th := st.parent.thread
	for _, m := range queued {
		if l := th.postLetter(th.Now(), routeFrameHandler); l != nil {
			l.msg, l.frame, l.handler = m, st, cb
		}
	}
}

// framePostToParent implements postMessage from a frame scope to its
// embedding window: the parent's onmessage fires with the frame's origin.
func (g *Global) framePostToParent(data any) {
	st := g.frame
	b := g.browser
	if st == nil || !st.attached {
		return
	}
	b.trace(TraceEvent{Kind: TracePostMessage, ThreadID: g.thread.id, Detail: "to-parent-window", Value: int64(st.id)})
	deliverAt := g.thread.Now() + b.Profile.MessageLatency
	if l := st.parent.thread.postLetter(deliverAt, routeFromFrame); l != nil {
		l.msg.Data, l.msg.Origin, l.frame = data, st.origin, st
	}
}
