package kernel

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// This file is the kernel's syscall surface: Install wires the mediated
// bindings table over every new JavaScript context, and the mediated
// entry points that are pure pass-through-with-policy (DOM attributes,
// shared buffers) live here beside it.

// Install kernelizes one global scope: it snapshots the native bindings,
// replaces every entry with the kernel's mediated version, claims the
// scope's native message handler, and freezes the table against user-space
// redefinition.
func (s *Shared) Install(g *browser.Global) {
	k := &Kernel{
		shared: s,
		g:      g,
		native: *g.Bindings(), // snapshot of the unmediated entry points
		queue:  NewEventQueue(),
		clock:  NewClock(s.policy.Quantum()),
	}
	k.watchdog = k.expire
	s.kernels[g] = k
	if _, ok := s.byThread[g.Thread().ID()]; !ok {
		// The first scope installed on a thread is its primary scope.
		s.byThread[g.Thread().ID()] = k
		if g.Thread().IsMain() {
			s.main = k
		}
	}
	if s.simNow == nil {
		s.simNow = g.Browser().Sim.Now
	}
	if s.tracer != nil {
		k.scope = s.tracer.NextScope()
		kind := "window"
		if g.IsFrameScope() {
			kind = "frame"
		} else if g.IsWorkerScope() {
			kind = "worker"
		}
		// The install record names the active policy, so trace consumers
		// (the obs telemetry report in particular) can label a run with
		// the rule set that governed it without out-of-band context.
		k.emit(trace.Record{Op: trace.OpInstall, API: kind, Reason: s.policy.Name()})
	}

	bn := g.Bindings()
	bn.SetTimeout = k.kSetTimeout
	bn.ClearTimeout = k.kClearTimer
	bn.SetInterval = k.kSetInterval
	bn.ClearInterval = k.kClearInterval
	bn.PerformanceNow = k.kPerformanceNow
	bn.DateNow = k.kDateNow
	bn.RequestAnimationFrame = k.kRequestAnimationFrame
	bn.CancelAnimationFrame = k.kClearTimer
	bn.NewWorker = k.kNewWorker
	bn.PostMessage = k.kPostMessage
	bn.SetOnMessage = k.kSetOnMessage
	bn.Fetch = k.kFetch
	bn.AbortFetch = k.kAbortFetch
	bn.XHR = k.kXHR
	bn.ImportScripts = k.kImportScripts
	bn.IndexedDBOpen = k.kIndexedDBOpen
	bn.WorkerLocation = k.kWorkerLocation
	bn.LoadScript = k.kLoadScript
	bn.LoadImage = k.kLoadImage
	bn.StartCSSAnimation = k.kStartCSSAnimation
	bn.StopCSSAnimation = k.kStopCSSAnimation
	bn.PlayVideo = k.kPlayVideo
	bn.SharedBufferRead = k.kSharedBufferRead
	bn.SharedBufferWrite = k.kSharedBufferWrite
	bn.TransferToParent = k.kTransferToParent
	bn.DOMSetAttribute = k.kDOMSetAttribute
	bn.DOMGetAttribute = k.kDOMGetAttribute
	bn.CreateFrame = k.kCreateFrame

	// The kernel owns the scope's real message handler; user handlers are
	// registered with the kernel and invoked by the dispatcher.
	k.native.SetOnMessage(k.onNativeMessage)

	// Object.freeze analogue: user space can no longer redefine the table.
	g.Freeze()
}

// kDOMSetAttribute mediates attribute writes. The DOM attribute test is
// the paper's worst case (≈21% slower) because every access traverses the
// kernel and the website JavaScript.
func (k *Kernel) kDOMSetAttribute(el *dom.Element, name, value string) {
	k.interpose()
	k.native.DOMSetAttribute(el, name, value)
}

// kDOMGetAttribute mediates attribute reads.
func (k *Kernel) kDOMGetAttribute(el *dom.Element, name string) (string, bool) {
	k.interpose()
	return k.native.DOMGetAttribute(el, name)
}

// --- Shared buffers ---

// bufAccessSpacing is the serialization interval the kernel enforces
// between cross-thread shared-buffer accesses under ActionSerialize; it
// exceeds the race detector's window by half.
const bufAccessSpacing = 150 * sim.Microsecond

// serializeBufAccess spaces this access after the previous one from any
// thread, routing all accesses through the kernel's single logical queue
// (§III-E2) and eliminating the race of CVE-2014-3194.
func (k *Kernel) serializeBufAccess() {
	now := k.g.Thread().Now()
	earliest := k.shared.lastBufAccess + bufAccessSpacing
	if now < earliest {
		k.g.Busy(earliest - now)
		now = earliest
	}
	k.shared.lastBufAccess = now
}

func (k *Kernel) kSharedBufferRead(buf *browser.SharedBuffer, idx int) (int64, error) {
	ctx := k.callCtx("sharedBuffer.read", "")
	switch v := k.shared.evaluate(ctx); v.Action {
	case ActionDeny, ActionDrop:
		// The hardening stance real browsers took post-Spectre: shared
		// memory is unavailable to scripts.
		return 0, fmt.Errorf("%w: SharedArrayBuffer access", ErrPolicyDenied)
	case ActionSerialize:
		k.serializeBufAccess()
		// The serialization queue acts as a per-buffer lock: the acquire/
		// release pair orders every kernel-mediated access for the hb
		// analysis, mirroring the real mutual exclusion §III-E2 enforces.
		k.emitEdge("sab-lock", buf.ID, "acq")
		defer k.emitEdge("sab-lock", buf.ID, "rel")
	}
	return k.native.SharedBufferRead(buf, idx)
}

func (k *Kernel) kSharedBufferWrite(buf *browser.SharedBuffer, idx int, val int64) error {
	ctx := k.callCtx("sharedBuffer.write", "")
	switch v := k.shared.evaluate(ctx); v.Action {
	case ActionDeny, ActionDrop:
		return fmt.Errorf("%w: SharedArrayBuffer access", ErrPolicyDenied)
	case ActionSerialize:
		k.serializeBufAccess()
		k.emitEdge("sab-lock", buf.ID, "acq")
		defer k.emitEdge("sab-lock", buf.ID, "rel")
	}
	return k.native.SharedBufferWrite(buf, idx, val)
}

// workerID returns the worker ID of this scope, or 0 for the main
// thread (and for a worker scope before kNewWorker has registered it).
func (k *Kernel) workerID() int { return k.wid }
