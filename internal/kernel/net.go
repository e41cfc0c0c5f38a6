package kernel

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/webnet"
)

// This file is the kernel's network and resource-load surface: fetch
// with the Listing 4 worker handshake, XHR, importScripts, IndexedDB,
// worker location, and the multi-callback resource loads of §III-D1.

// fetchResult carries a completed fetch through event dispatch.
type fetchResult struct {
	resp *browser.Response
	err  error
}

func (k *Kernel) kFetch(url string, opts browser.FetchOptions, cb func(*browser.Response, error)) browser.FetchID {
	k.interpose()
	ctx := k.callCtx("fetch", url)
	wid := k.workerID()
	ctx.WorkerID = wid
	if v := k.shared.evaluate(ctx); v.Action == ActionDeny {
		ev := k.newEvent("fetch", k.predict("fetch", 0))
		ev.Callback = func(g *browser.Global, _ any) {
			if cb != nil {
				cb(nil, fmt.Errorf("%w: fetch %s", ErrPolicyDenied, url))
			}
		}
		k.confirm(ev)
		return 0
	}
	ev := k.newEvent("fetch", k.predict("fetch", 0))
	ev.Callback = func(g *browser.Global, args any) {
		r, ok := args.(fetchResult)
		if !ok {
			return
		}
		if cb != nil {
			cb(r.resp, r.err)
		}
	}
	pending := refOf(ev)
	if wid != 0 {
		// Kernel-space bookkeeping + the Listing 4 handshake to the main
		// kernel, so a user-level terminate can be safely deferred.
		k.sysToMain(envelope{Kind: "sys", Op: "pendingChildFetch", Wid: wid})
	}
	fid := k.native.Fetch(url, opts, func(resp *browser.Response, err error) {
		if wid != 0 {
			k.sysToMain(envelope{Kind: "sys", Op: "childFetchDone", Wid: wid})
		}
		k.confirmRef(pending, fetchResult{resp: resp, err: err})
	})
	return fid
}

func (k *Kernel) kAbortFetch(id browser.FetchID) {
	// Abort passes through: the defense against CVE-2018-5092 lives in
	// the terminate path (the worker is never natively terminated while a
	// fetch is pending, so the abort is always clean).
	k.native.AbortFetch(id)
}

func (k *Kernel) kXHR(url string) (string, error) {
	ctx := k.callCtx("xhr", url)
	if v := k.shared.evaluate(ctx); v.Action == ActionDeny {
		return "", fmt.Errorf("%w: cross-origin XHR from worker to %s", ErrPolicyDenied, url)
	}
	return k.native.XHR(url)
}

func (k *Kernel) kImportScripts(url string) error {
	ctx := k.callCtx("importScripts", url)
	v := k.shared.evaluate(ctx)
	if v.Action == ActionSanitize || v.Action == ActionDeny {
		// The kernel resolves the load itself: cross-origin failures are
		// reported with a kernel-synthesized message that carries no
		// cross-origin detail (CVE-2015-7215 policy).
		b := k.g.Browser()
		if _, err := b.Net.Lookup(url); err != nil || ctx.CrossOrigin {
			return fmt.Errorf("%w: importScripts", ErrSanitized)
		}
	}
	return k.native.ImportScripts(url)
}

func (k *Kernel) kIndexedDBOpen(name string) (*browser.IDBStore, error) {
	ctx := k.callCtx("indexedDB.open", "")
	if v := k.shared.evaluate(ctx); v.Action == ActionDeny {
		return nil, fmt.Errorf("%w: IndexedDB in private browsing", ErrPolicyDenied)
	}
	return k.native.IndexedDBOpen(name)
}

func (k *Kernel) kWorkerLocation() string {
	ctx := k.callCtx("workerLocation", "")
	b := k.g.Browser()
	wid := k.workerID()
	if stub, ok := k.shared.workers[wid]; ok {
		if final, redirected := b.RedirectTarget(stub.src); redirected {
			ctx.Redirected = !webnet.SameOrigin(final, b.Origin)
		}
	}
	if v := k.shared.evaluate(ctx); v.Action == ActionSanitize && ctx.Redirected {
		// Kernel-synthesized, origin-only location (CVE-2011-1190 policy).
		if stub, ok := k.shared.workers[wid]; ok {
			return b.Origin + "/" + stub.src
		}
		return b.Origin + "/"
	}
	return k.native.WorkerLocation()
}

// --- Resource loads (multi-callback confirmation, §III-D1) ---

func (k *Kernel) kLoadScript(url string, onload func(*browser.Global), onerror func(*browser.Global)) {
	ev := k.newEvent("script-load", k.predict("script-load", 0))
	ev.Callback = func(g *browser.Global, args any) {
		outcome, ok := args.(string)
		if !ok {
			return
		}
		// Confirmation selected which callback survives; the other was
		// deleted from the callback list.
		switch outcome {
		case "load":
			if onload != nil {
				onload(g)
			}
		case "error":
			if onerror != nil {
				onerror(g)
			}
		}
	}
	pending := refOf(ev)
	k.native.LoadScript(url,
		func(*browser.Global) { k.confirmRef(pending, "load") },
		func(*browser.Global) { k.confirmRef(pending, "error") },
	)
}

// loadedImage carries the decoded element through dispatch.
type loadedImage struct {
	el *dom.Element
}

func (k *Kernel) kLoadImage(url string, onload func(*browser.Global, *dom.Element), onerror func(*browser.Global)) {
	ev := k.newEvent("image-load", k.predict("image-load", 0))
	ev.Callback = func(g *browser.Global, args any) {
		switch v := args.(type) {
		case loadedImage:
			if onload != nil {
				onload(g, v.el)
			}
		case string:
			if v == "error" && onerror != nil {
				onerror(g)
			}
		}
	}
	pending := refOf(ev)
	k.native.LoadImage(url,
		func(_ *browser.Global, el *dom.Element) { k.confirmRef(pending, loadedImage{el: el}) },
		func(*browser.Global) { k.confirmRef(pending, "error") },
	)
}
