package kernel

import (
	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

// This file is the kernel's messaging layer (§III-E2): the envelope
// overlay on the postMessage channel, the onmessage traps, kernel-space
// (sys) traffic, and buffer transfer to the parent.

// envelope is the kernel's overlay on the postMessage channel (§III-E2):
// a type field distinguishes kernel-space from user-space traffic, and a
// user envelope references the receiving kernel's pre-registered pending
// event. Envelopes travel by pointer, so posting one boxes nothing, and
// they come from the environment's free list: the receiving kernel
// returns each one as it opens it.
type envelope struct {
	Kind string // "user" or "sys"
	Op   string // sys operation name
	Data any
	ev   evRef // user traffic: the delivery's pending event
	Wid  int
}

// newEnvelope takes an envelope from the free list.
func (s *Shared) newEnvelope() *envelope {
	if n := len(s.envelopes); n > 0 {
		env := s.envelopes[n-1]
		s.envelopes = s.envelopes[:n-1]
		return env
	}
	return &envelope{}
}

// userEnvelope wraps user data for delivery through pending event ev.
func (s *Shared) userEnvelope(ev *Event, data any, wid int) *envelope {
	env := s.newEnvelope()
	env.Kind, env.Data, env.ev, env.Wid = "user", data, refOf(ev), wid
	return env
}

// freeEnvelope returns an opened envelope to the free list.
func (s *Shared) freeEnvelope(env *envelope) {
	*env = envelope{}
	s.envelopes = append(s.envelopes, env)
}

// openEnvelope frees a delivered user envelope and returns its data and
// the pending event it names, or a nil event when that event is not
// this kernel's or has left the queue since the message was sent (the
// watchdog expired it and its storage was reused).
func (k *Kernel) openEnvelope(env *envelope) (*Event, any) {
	ev, data := env.ev.get(), env.Data
	k.shared.freeEnvelope(env)
	if ev == nil || ev.k != k {
		return nil, data
	}
	return ev, data
}

// newMessage registers a message delivery event in this kernel. At
// dispatch it reaches the worker stub's handler when stub is set, and
// this kernel's user handler otherwise.
func (k *Kernel) newMessage(pred sim.Time, stub *WorkerStub) *Event {
	ev := k.newEvent("onmessage", pred)
	ev.kind, ev.stub = kindMessage, stub
	return ev
}

// kPostMessage handles scope-level postMessage: worker scopes post to the
// parent, the main scope to itself. The receiving kernel's event (already
// registered by us) is confirmed when the native delivery lands.
func (k *Kernel) kPostMessage(data any) {
	k.interpose()
	b := k.g.Browser()
	if k.g.IsFrameScope() {
		// Frame → embedding window: register the delivery with the
		// window's kernel, predicted from this frame kernel's logical
		// state, then let the native path carry the envelope.
		mk := k.shared.byThread[b.Main().ID()]
		if mk == nil {
			k.native.PostMessage(data)
			return
		}
		ev := mk.newMessage(mk.nextInboundPred(k.nextOutgoingPred()), nil)
		k.native.PostMessage(k.shared.userEnvelope(ev, data, 0))
		return
	}
	if k.g.IsWorkerScope() {
		ctx := k.callCtx("postMessage", "")
		wid := k.workerID()
		ctx.WorkerID = wid
		if v := k.shared.evaluate(ctx); v.Action == ActionDrop {
			// Policy (CVE-2010-4576): no messages into a torn-down document.
			return
		}
		if k.shared.userTerminatedWorker(wid) {
			// User space terminated this worker; the kernel keeps the
			// thread alive but silences its outbound traffic.
			return
		}
		mk := k.shared.byThread[b.Main().ID()]
		if mk == nil {
			k.native.PostMessage(data)
			return
		}
		ev := mk.newMessage(mk.nextInboundPred(k.nextOutgoingPred()), k.shared.workers[wid])
		k.native.PostMessage(k.shared.userEnvelope(ev, data, wid))
		return
	}
	// Main-scope self post.
	ev := k.newMessage(k.nextInboundPred(k.nextOutgoingPred()), nil)
	k.native.PostMessage(k.shared.userEnvelope(ev, data, 0))
}

// kSetOnMessage is the onmessage trap for the scope itself (worker `self`
// or window): user handlers are stored in the kernel and invoked by the
// dispatcher.
func (k *Kernel) kSetOnMessage(cb func(*browser.Global, browser.MessageEvent)) {
	k.userOnMessage = cb
	if cb == nil || len(k.msgInbox) == 0 {
		return
	}
	queued := k.msgInbox
	k.msgInbox = nil
	for _, m := range queued {
		cb(k.g, m)
	}
}

// deliverUserMessage hands a dispatched message to the user handler, or
// parks it until one is installed.
func (k *Kernel) deliverUserMessage(g *browser.Global, m browser.MessageEvent) {
	if k.userOnMessage == nil {
		k.msgInbox = append(k.msgInbox, m)
		return
	}
	k.userOnMessage(g, m)
}

// onNativeMessage is the kernel's claim on the scope's real onmessage.
func (k *Kernel) onNativeMessage(g *browser.Global, m browser.MessageEvent) { k.receive(m, nil) }

// receive handles one native message delivered to this kernel, through
// the scope's onmessage or, when stub is set, through that worker's
// handle: it unwraps the overlay, routes kernel-space traffic, and
// confirms the pending event for user-space traffic.
func (k *Kernel) receive(m browser.MessageEvent, stub *WorkerStub) {
	env, ok := m.Data.(*envelope)
	if !ok {
		// Raw (non-kernel) traffic: deliver through a freshly registered
		// event to keep ordering deterministic.
		k.confirmMessage(k.newMessage(k.nextMessagePred(), stub), m)
		return
	}
	if env.Kind == "sys" {
		k.handleSysMessage(*env)
		k.shared.freeEnvelope(env)
		return
	}
	wid := env.Wid
	ev, data := k.openEnvelope(env)
	if ev == nil {
		return
	}
	if stub != nil {
		wid = stub.id
	}
	k.confirmMessage(ev, browser.MessageEvent{Data: data, SourceWorker: wid, Transfer: m.Transfer, Origin: m.Origin})
}

// handleSysMessage processes kernel-space traffic (§III-E2: the paper's
// two kernel-space communication types are exchanging a clock and passing
// the thread source; plus the Listing 4 fetch handshake).
func (k *Kernel) handleSysMessage(env envelope) {
	// Acquire side of the kernel-space handshake edge: the receiving
	// kernel observes everything the sender published before the send.
	k.emitEdge("sys", int64(env.Wid), "acq")
	switch env.Op {
	case "clockExchange":
		// The parent kernel shares its logical time when the thread is
		// created, so the child's clock starts aligned with the parent's
		// deterministic schedule rather than at zero.
		if at, ok := env.Data.(int64); ok {
			k.clock.TickTo(sim.Time(at))
		}
	case "pendingChildFetch":
		// The worker kernel announced an in-flight fetch; the main kernel
		// acknowledges so terminate decisions see it (Listing 4).
		k.shared.pendingFetch[env.Wid]++
	case "childFetchDone":
		if k.shared.pendingFetch[env.Wid] > 0 {
			k.shared.pendingFetch[env.Wid]--
		}
		k.shared.maybeFinishDeferredTerminate(env.Wid)
	}
}

// sysToMain sends a kernel-space message to the main thread's kernel. In
// this single-process reproduction the channel is synchronous: the shared
// kernel storage is updated directly, which is the same state the paper's
// asynchronous handshake converges to.
func (k *Kernel) sysToMain(env envelope) {
	b := k.g.Browser()
	mk := k.shared.byThread[b.Main().ID()]
	if mk == nil {
		return
	}
	// Release side of the kernel-space handshake edge (the acquire is
	// emitted by the receiving kernel in handleSysMessage).
	k.emitEdge("sys", int64(env.Wid), "rel")
	mk.handleSysMessage(env)
}

func (k *Kernel) kTransferToParent(data any, buf *browser.SharedBuffer) error {
	wid := k.workerID()
	if wid != 0 && buf != nil {
		k.shared.transferred[wid] = true
	}
	b := k.g.Browser()
	mk := k.shared.byThread[b.Main().ID()]
	stub := k.shared.workers[wid]
	if mk == nil {
		return k.native.TransferToParent(data, buf)
	}
	ev := mk.newMessage(mk.nextInboundPred(k.nextOutgoingPred()), stub)
	return k.native.TransferToParent(k.shared.userEnvelope(ev, data, wid), buf)
}
