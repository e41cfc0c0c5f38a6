package browser

import (
	"errors"
	"fmt"

	"jskernel/internal/sim"
	"jskernel/internal/webnet"
)

// FetchID identifies an in-flight fetch for abort bookkeeping.
type FetchID int64

// ErrAborted is delivered to a fetch callback when its request is aborted.
var ErrAborted = errors.New("browser: fetch aborted")

// Response is a completed fetch's result.
type Response struct {
	URL    string
	Opaque bool   // cross-origin: size/body unreadable
	Bytes  int64  // 0 when opaque
	Body   string // "" when opaque
	Cached bool
}

// FetchOptions configures a fetch request.
type FetchOptions struct {
	Signal *AbortSignal
	// MaxRetries re-issues the request after a transient network failure
	// (webnet.TransientError) with exponential backoff, up to this many
	// extra attempts. Permanent failures (webnet.NotFoundError) are never
	// retried. Zero disables retry.
	MaxRetries int
	// RetryBackoff is the delay before the first retry, doubling on each
	// subsequent attempt. Zero defaults to 50ms of virtual time.
	RetryBackoff sim.Duration
}

// defaultRetryBackoff is the base retry delay when FetchOptions leaves
// RetryBackoff unset.
const defaultRetryBackoff = 50 * sim.Millisecond

// AbortSignal connects a fetch to an AbortController.
type AbortSignal struct {
	ctl *AbortController
}

// AbortController mirrors the web's AbortController: aborting cancels all
// fetches registered with its signal.
type AbortController struct {
	g       *Global
	aborted bool
	fetches []FetchID
}

// NewAbortController returns a controller bound to this scope.
func (g *Global) NewAbortController() *AbortController {
	return &AbortController{g: g}
}

// Signal returns the controller's signal for use in FetchOptions.
func (c *AbortController) Signal() *AbortSignal { return &AbortSignal{ctl: c} }

// Aborted reports whether Abort has been called.
func (c *AbortController) Aborted() bool { return c.aborted }

// Abort cancels every fetch started with this controller's signal. In
// vulnerable browsers, aborting a fetch whose worker has already been
// (falsely) terminated sends the abort into freed memory — the final step
// of CVE-2018-5092. The native layer performs the abort unconditionally
// and traces it; the vuln registry decides whether it was a trigger.
func (c *AbortController) Abort() {
	c.aborted = true
	for _, id := range c.fetches {
		c.g.bindings.AbortFetch(id)
	}
	c.fetches = nil
}

// fetchRecord tracks one in-flight request at the browser level.
type fetchRecord struct {
	id       FetchID
	url      string
	thread   *Thread
	workerID int
	done     bool
	aborted  bool
	orphaned bool // its thread was terminated while the fetch was pending
	retries  int  // transient-failure retries performed so far
	cancel   func()
	cb       func(*Response, error)
}

// activeFetches lazily initializes the browser's fetch table.
func (b *Browser) activeFetches() map[FetchID]*fetchRecord {
	if b.fetches == nil {
		b.fetches = make(map[FetchID]*fetchRecord)
	}
	return b.fetches
}

// orphanFetches marks all pending fetches of a dying thread as orphaned
// and reports how many there were.
func (b *Browser) orphanFetches(t *Thread) int {
	n := 0
	for _, rec := range b.activeFetches() {
		if rec.thread == t && !rec.done && !rec.aborted {
			rec.orphaned = true
			n++
		}
	}
	return n
}

// nativeFetch implements fetch(): resolve the resource, schedule the
// response callback after the simulated transfer latency, and register
// abort bookkeeping.
func (g *Global) nativeFetch(url string, opts FetchOptions, cb func(*Response, error)) FetchID {
	b := g.browser
	b.nextFetch++
	id := FetchID(b.nextFetch)
	workerID := 0
	if g.worker != nil {
		workerID = g.worker.id
	}
	rec := &fetchRecord{id: id, url: url, thread: g.thread, workerID: workerID, cb: cb}
	b.activeFetches()[id] = rec
	if opts.Signal != nil && opts.Signal.ctl != nil {
		opts.Signal.ctl.fetches = append(opts.Signal.ctl.fetches, id)
	}
	b.trace(TraceEvent{Kind: TraceFetchStart, ThreadID: g.thread.id, WorkerID: workerID, URL: url, Value: int64(id)})

	backoff := opts.RetryBackoff
	if backoff <= 0 {
		backoff = defaultRetryBackoff
	}
	retriesLeft := opts.MaxRetries

	var attempt func()
	attempt = func() {
		result, err := b.Net.Fetch(url, b.Origin)
		if err != nil {
			// Network-level failure still resolves asynchronously — after
			// the (possibly truncated) transfer latency for injected
			// transient faults, or one message hop for permanent ones.
			failLatency := result.Latency
			if failLatency <= 0 {
				failLatency = b.Profile.MessageLatency
			}
			failAt := rec.thread.Now() + failLatency
			if retriesLeft > 0 && webnet.IsTransient(err) {
				retriesLeft--
				rec.retries++
				delay := backoff
				backoff *= 2
				b.trace(TraceEvent{Kind: TraceFetchRetry, ThreadID: rec.thread.id, WorkerID: workerID, URL: url, Value: int64(id), Detail: err.Error()})
				evID := b.Sim.Schedule(failAt+delay, fmt.Sprintf("fetch-retry#%d", id), func() {
					if rec.aborted || rec.thread.terminated {
						return
					}
					attempt()
				})
				rec.cancel = func() { b.Sim.Cancel(evID) }
				return
			}
			rec.cancel = nil
			rec.thread.PostTask(failAt, func(gg *Global) {
				if rec.aborted {
					return
				}
				rec.done = true
				delete(b.fetches, id)
				if cb != nil {
					cb(nil, err)
				}
			})
			return
		}
		resp := &Response{URL: url, Opaque: result.Opaque, Cached: !result.FromNet}
		if !result.Opaque {
			resp.Bytes = result.Resource.Bytes
			resp.Body = result.Resource.Body
		}
		doneAt := rec.thread.Now() + result.Latency
		evID := b.Sim.Schedule(doneAt, fmt.Sprintf("fetch#%d", id), func() {
			if rec.aborted || rec.thread.terminated {
				return
			}
			if h := b.faults; h != nil && h.FetchDone != nil && h.FetchDone(url) {
				// Injected abort race: the response is ready, but an abort
				// lands first. The abort path resolves the request (and any
				// kernel event registered for it) with ErrAborted.
				g.nativeAbortFetch(id)
				return
			}
			rec.done = true
			delete(b.fetches, id)
			b.trace(TraceEvent{Kind: TraceFetchDone, ThreadID: rec.thread.id, WorkerID: workerID, URL: url, Value: int64(id)})
			rec.thread.PostTask(doneAt, func(gg *Global) {
				if cb != nil {
					cb(resp, nil)
				}
			})
		})
		rec.cancel = func() { b.Sim.Cancel(evID) }
	}
	attempt()
	return id
}

// nativeAbortFetch implements the abort path. Aborting an orphaned fetch
// (its worker already terminated) is traced with the detail the
// CVE-2018-5092 detector keys on.
func (g *Global) nativeAbortFetch(id FetchID) {
	b := g.browser
	rec, ok := b.activeFetches()[id]
	if !ok {
		return
	}
	detail := ""
	switch {
	case rec.orphaned:
		detail = "orphaned"
	case rec.done:
		detail = "late"
	}
	if rec.orphaned {
		// Hazard witness: the abort lands in the freed worker's request
		// state (CVE-2018-5092's final step).
		b.access(g.thread, "worker", int64(rec.workerID), AccessWrite|AccessGuardian)
		b.access(g.thread, "worker", int64(rec.workerID), AccessWrite)
	}
	b.trace(TraceEvent{Kind: TraceFetchAbort, ThreadID: g.thread.id, WorkerID: rec.workerID, URL: rec.url, Detail: detail, Value: int64(id)})
	if rec.done || rec.aborted {
		return
	}
	rec.aborted = true
	if rec.cancel != nil {
		rec.cancel()
	}
	delete(b.fetches, id)
	if rec.cb != nil && !rec.orphaned {
		cb := rec.cb
		rec.thread.PostTask(rec.thread.Now(), func(gg *Global) { cb(nil, ErrAborted) })
	}
}

// PendingFetches reports the number of in-flight fetches (tests and the
// kernel thread manager use it).
func (b *Browser) PendingFetches() int {
	n := 0
	for _, rec := range b.activeFetches() {
		if !rec.done && !rec.aborted {
			n++
		}
	}
	return n
}

// nativeXHR implements a synchronous XMLHttpRequest. The native layer is
// vulnerable (CVE-2013-1714): requests from worker threads skip the
// same-origin check and return cross-origin bodies. The main thread
// enforces the check, matching the real bug's shape.
func (g *Global) nativeXHR(url string) (string, error) {
	b := g.browser
	crossOrigin := !webnet.SameOrigin(url, b.Origin)
	detail := "same-origin"
	if crossOrigin {
		detail = "cross-origin"
		if g.worker != nil {
			detail = "cross-origin-worker"
		}
	}
	if detail == "cross-origin-worker" {
		// Hazard witness: a worker-thread request crossing the origin
		// boundary unchecked (CVE-2013-1714).
		b.access(g.thread, "origin", 0, AccessWrite|AccessGuardian)
		b.access(g.thread, "origin", 0, 0)
	}
	b.trace(TraceEvent{Kind: TraceXHR, ThreadID: g.thread.id, URL: url, Detail: detail})
	if crossOrigin && g.worker == nil {
		return "", fmt.Errorf("browser: XHR to %s blocked by same-origin policy", url)
	}
	res, err := b.Net.Fetch(url, b.Origin)
	if err != nil {
		return "", err
	}
	g.thread.advance(res.Latency)
	return res.Resource.Body, nil
}

// nativeImportScripts implements importScripts() in worker scopes. A
// failing cross-origin load produces the detailed error message whose
// text leaks cross-origin information (CVE-2015-7215 / CVE-2014-1487
// family); the error is also routed to the parent's onerror handler.
func (g *Global) nativeImportScripts(url string) error {
	b := g.browser
	if g.worker == nil {
		return fmt.Errorf("browser: importScripts is only available in workers")
	}
	b.trace(TraceEvent{Kind: TraceImportScripts, ThreadID: g.thread.id, WorkerID: g.worker.id, URL: url})
	res, err := b.Net.Fetch(url, b.Origin)
	if err != nil {
		// Leaky native error text: includes the exact URL and resolution
		// detail an attacker can mine for cross-origin state.
		werr := &WorkerError{
			Message: fmt.Sprintf("NetworkError: importScripts failed for %s (%v; upstream status visible)", url, err),
			URL:     url,
		}
		// Hazard witness: the leaky error text exposes cross-origin
		// resolution state (CVE-2015-7215 / CVE-2014-1487 family).
		b.access(g.thread, "origin", 0, AccessWrite|AccessGuardian)
		b.access(g.thread, "origin", 0, 0)
		b.trace(TraceEvent{Kind: TraceNavigationError, ThreadID: g.thread.id, WorkerID: g.worker.id, URL: url, Detail: "leaky-error"})
		g.reportWorkerError(werr)
		return werr
	}
	g.thread.advance(res.Latency)
	g.thread.advance(perKBCost(res.Resource.Bytes, b.Profile.ScriptParsePerKB))
	return nil
}

// perKBCost scales a per-kilobyte cost to a byte count.
func perKBCost(bytes int64, perKB sim.Duration) sim.Duration {
	return sim.Duration(float64(bytes) / 1024 * float64(perKB))
}
