package kernel

import (
	"jskernel/internal/browser"
)

// Frame support: the paper's kernel is injected "into every new JavaScript
// context, such as a newly-opened window and an iframe" (§VI). The
// browser's scope installer already kernelizes the frame's global; this
// file adds the user-space stub so cross-context messaging goes through
// both kernels' schedulers.

// FrameStub is the kernel's user-space handle for an embedded frame.
type FrameStub struct {
	shared *Shared
	parent *Kernel
	native browser.Frame
}

var _ browser.Frame = (*FrameStub)(nil)

// ID returns the frame's unique id.
func (f *FrameStub) ID() int { return f.native.ID() }

// Origin returns the frame document's origin.
func (f *FrameStub) Origin() string { return f.native.Origin() }

// Attached reports whether the frame is still embedded.
func (f *FrameStub) Attached() bool { return f.native.Attached() }

// Scope returns the frame's (kernelized) global scope.
func (f *FrameStub) Scope() *browser.Global { return f.native.Scope() }

// RunScript schedules script execution inside the frame.
func (f *FrameStub) RunScript(name string, script browser.Script) {
	f.native.RunScript(name, script)
}

// Remove detaches the frame.
func (f *FrameStub) Remove() { f.native.Remove() }

// PostMessage routes a parent→frame message through the frame kernel's
// scheduler: the delivery event is registered (with a prediction from the
// sending window's logical state) before the native message travels.
func (f *FrameStub) PostMessage(data any, targetOrigin string) {
	fk := f.shared.KernelOf(f.native.Scope())
	if fk == nil {
		f.native.PostMessage(data, targetOrigin)
		return
	}
	ev := fk.newMessage(fk.nextInboundPred(f.parent.nextOutgoingPred()), nil)
	f.native.PostMessage(f.shared.userEnvelope(ev, data, 0), targetOrigin)
}

// kCreateFrame wraps frame creation; the new scope is kernelized by the
// browser's installer before any frame script runs.
func (k *Kernel) kCreateFrame(origin string) (browser.Frame, error) {
	k.interpose()
	native, err := k.native.CreateFrame(origin)
	if err != nil {
		return nil, err
	}
	return &FrameStub{shared: k.shared, parent: k, native: native}, nil
}
