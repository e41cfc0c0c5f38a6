package kernel

import (
	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

// This file is the kernel's messaging layer (§III-E2): the envelope
// overlay on the postMessage channel, the onmessage traps, kernel-space
// (sys) traffic, and buffer transfer to the parent.

// envelope is the kernel's overlay on the postMessage channel (§III-E2):
// a type field distinguishes kernel-space from user-space traffic, and the
// event ID links a delivery to its pre-registered pending event.
type envelope struct {
	Kind string // "user" or "sys"
	Op   string // sys operation name
	Data any
	EvID EventID
	Wid  int
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
		ev := mk.newEvent("onmessage", mk.nextInboundPred(k.nextOutgoingPred()), func(g *browser.Global, args any) {
			m, ok := args.(browser.MessageEvent)
			if !ok {
				return
			}
			mk.deliverUserMessage(g, m)
		})
		k.native.PostMessage(envelope{Kind: "user", Data: data, EvID: ev.ID})
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
		stub := k.shared.workers[wid]
		ev := mk.newEvent("onmessage", mk.nextInboundPred(k.nextOutgoingPred()), func(g *browser.Global, args any) {
			m, ok := args.(browser.MessageEvent)
			if !ok {
				return
			}
			if stub != nil {
				stub.deliver(g, m)
				return
			}
			mk.deliverUserMessage(g, m)
		})
		k.native.PostMessage(envelope{Kind: "user", Data: data, EvID: ev.ID, Wid: wid})
		return
	}
	// Main-scope self post.
	ev := k.newEvent("onmessage", k.nextInboundPred(k.nextOutgoingPred()), func(g *browser.Global, args any) {
		m, ok := args.(browser.MessageEvent)
		if !ok {
			return
		}
		k.deliverUserMessage(g, m)
	})
	k.native.PostMessage(envelope{Kind: "user", Data: data, EvID: ev.ID})
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

// onNativeMessage is the kernel's claim on the scope's real onmessage: it
// unwraps the overlay, routes kernel-space traffic, and confirms the
// pending event for user-space traffic.
func (k *Kernel) onNativeMessage(g *browser.Global, m browser.MessageEvent) {
	env, ok := m.Data.(envelope)
	if !ok {
		// Raw (non-kernel) traffic: deliver through a freshly registered
		// event to keep ordering deterministic.
		ev := k.newEvent("onmessage", k.nextMessagePred(), func(gg *browser.Global, args any) {
			mm, ok := args.(browser.MessageEvent)
			if !ok {
				return
			}
			k.deliverUserMessage(gg, mm)
		})
		k.confirm(ev, m)
		return
	}
	if env.Kind == "sys" {
		k.handleSysMessage(env)
		return
	}
	ev, found := k.queue.Lookup(env.EvID)
	if !found {
		return
	}
	k.confirm(ev, browser.MessageEvent{Data: env.Data, SourceWorker: env.Wid, Transfer: m.Transfer, Origin: m.Origin})
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
	ev := mk.newEvent("onmessage", mk.nextInboundPred(k.nextOutgoingPred()), func(g *browser.Global, args any) {
		m, ok := args.(browser.MessageEvent)
		if !ok {
			return
		}
		if stub != nil {
			stub.deliver(g, m)
			return
		}
		mk.deliverUserMessage(g, m)
	})
	return k.native.TransferToParent(envelope{Kind: "user", Data: data, EvID: ev.ID, Wid: wid}, buf)
}
