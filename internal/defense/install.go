package defense

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/dom"
	"jskernel/internal/sim"
)

// This file implements the non-kernel defenses as scope installers: each
// rewrites the bindings table of every new JavaScript context, exactly the
// deployment surface a browser extension has.

// fuzzyfoxInstall randomizes what the page can learn about time: explicit
// clocks are quantized to a 100µs grid and fuzzed by up to ±0.5ms, and
// timer callbacks are randomly delayed by up to 2ms (the "pause task"
// pacing). Measurements become noisy — but remain averageable, which is
// why Fuzzyfox still loses Table I rows with large secrets.
func fuzzyfoxInstall(s *sim.Simulator) func(*browser.Global) {
	const (
		grid     = 100 * sim.Microsecond
		fuzzAmp  = 500 * sim.Microsecond
		paceAmp  = 30 * sim.Millisecond // fuzzy event-loop pauses are tens of ms
		fuzzAmpF = float64(fuzzAmp) / float64(sim.Millisecond)
	)
	return func(g *browser.Global) {
		rng := s.Rand()
		bn := g.Bindings()
		nativeNow := bn.PerformanceNow
		lastNow := 0.0
		bn.PerformanceNow = func() float64 {
			t := nativeNow()
			gridMs := grid.Milliseconds()
			quantized := float64(int64(t/gridMs)) * gridMs
			fuzzed := quantized + (rng.Float64()*2-1)*fuzzAmpF
			if fuzzed < lastNow {
				fuzzed = lastNow
			}
			lastNow = fuzzed
			return fuzzed
		}
		nativeDate := bn.DateNow
		bn.DateNow = func() int64 {
			return nativeDate() + int64(rng.Intn(3)) - 1
		}
		pace := func() sim.Duration { return sim.Duration(rng.Int63n(int64(paceAmp))) }
		nativeTimeout := bn.SetTimeout
		bn.SetTimeout = func(cb func(*browser.Global), d sim.Duration) int {
			return nativeTimeout(cb, d+pace())
		}
		nativeInterval := bn.SetInterval
		bn.SetInterval = func(cb func(*browser.Global), d sim.Duration) int {
			return nativeInterval(cb, d+pace())
		}
		nativeRAF := bn.RequestAnimationFrame
		bn.RequestAnimationFrame = func(cb func(*browser.Global, float64)) int {
			return nativeRAF(func(gg *browser.Global, ts float64) {
				// A pause task before the frame callback. Pauses routinely
				// exceed the frame period, so frames drop — one of
				// Fuzzyfox's visible compatibility costs.
				gg.Busy(pace())
				cb(gg, ts)
			})
		}
		// Pause tasks also land in front of resource-load and fetch
		// deliveries: page loading visibly slows (Figure 3).
		nativeLoadScript := bn.LoadScript
		bn.LoadScript = func(url string, onload, onerror func(*browser.Global)) {
			wrap := func(cb func(*browser.Global)) func(*browser.Global) {
				if cb == nil {
					return nil
				}
				return func(gg *browser.Global) {
					gg.Busy(pace())
					cb(gg)
				}
			}
			nativeLoadScript(url, wrap(onload), wrap(onerror))
		}
		nativeLoadImage := bn.LoadImage
		bn.LoadImage = func(url string, onload func(*browser.Global, *dom.Element), onerror func(*browser.Global)) {
			wrappedLoad := onload
			if onload != nil {
				wrappedLoad = func(gg *browser.Global, el *dom.Element) {
					gg.Busy(pace())
					onload(gg, el)
				}
			}
			wrappedErr := onerror
			if onerror != nil {
				wrappedErr = func(gg *browser.Global) {
					gg.Busy(pace())
					onerror(gg)
				}
			}
			nativeLoadImage(url, wrappedLoad, wrappedErr)
		}
		nativeFetch := bn.Fetch
		bn.Fetch = func(url string, opts browser.FetchOptions, cb func(*browser.Response, error)) browser.FetchID {
			wrapped := cb
			if cb != nil {
				wrapped = func(r *browser.Response, err error) {
					g.Busy(pace())
					cb(r, err)
				}
			}
			return nativeFetch(url, opts, wrapped)
		}
		g.Freeze()
	}
}

// torInstall coarsens explicit clocks to 100ms, Tor Browser's
// fingerprinting mitigation. Implicit clocks are untouched — which is why
// Tor loses every implicit-clock row of Table I.
func torInstall(g *browser.Global) {
	const grain = 100 * sim.Millisecond
	bn := g.Bindings()
	nativeNow := bn.PerformanceNow
	bn.PerformanceNow = func() float64 {
		grainMs := grain.Milliseconds()
		t := nativeNow()
		return float64(int64(t/grainMs)) * grainMs
	}
	nativeDate := bn.DateNow
	bn.DateNow = func() int64 {
		ms := nativeDate()
		return ms / 100 * 100
	}
	g.Freeze()
}

// chromeZeroInstall models JavaScript Zero's extension: timing APIs are
// redefined with reduced precision and noise, and workers are replaced by
// a non-parallel polyfill that runs worker scripts on the main thread —
// the functionality sacrifice §I of the paper calls out.
func chromeZeroInstall(s *sim.Simulator) func(*browser.Global) {
	const (
		grid    = 100 * sim.Microsecond
		fuzzAmp = 200 * sim.Microsecond
	)
	// proxyCost is the per-call price of JavaScript Zero's proxy chains:
	// every redefined API traverses several wrapped closures. It is what
	// makes Chrome Zero visibly slower than JSKernel in Figure 3.
	const proxyCost = 60 * sim.Microsecond
	// Polyfill worker IDs are allocated per environment, not from a
	// package-level counter: a global would make IDs depend on how many
	// environments ran before this one (and race when experiment cells
	// run on a worker pool), breaking run isolation.
	ids := polyfillIDBase
	return func(g *browser.Global) {
		rng := s.Rand()
		bn := g.Bindings()
		nativeNow := bn.PerformanceNow
		lastNow := 0.0
		bn.PerformanceNow = func() float64 {
			t := nativeNow()
			gridMs := grid.Milliseconds()
			fuzzMs := float64(fuzzAmp) / float64(sim.Millisecond)
			v := float64(int64(t/gridMs))*gridMs + (rng.Float64()*2-1)*fuzzMs
			if v < lastNow {
				v = lastNow
			}
			lastNow = v
			return v
		}
		bn.NewWorker = func(src string) (browser.Worker, error) {
			g.Busy(proxyCost)
			ids++
			return newPolyfillWorker(g, src, ids)
		}
		nativeTimeout := bn.SetTimeout
		bn.SetTimeout = func(cb func(*browser.Global), d sim.Duration) int {
			g.Busy(proxyCost)
			return nativeTimeout(cb, d)
		}
		nativeFetch := bn.Fetch
		bn.Fetch = func(url string, opts browser.FetchOptions, cb func(*browser.Response, error)) browser.FetchID {
			g.Busy(proxyCost)
			return nativeFetch(url, opts, cb)
		}
		nativeLoadScript := bn.LoadScript
		bn.LoadScript = func(url string, onload, onerror func(*browser.Global)) {
			g.Busy(proxyCost)
			nativeLoadScript(url, onload, onerror)
		}
		nativeLoadImage := bn.LoadImage
		bn.LoadImage = func(url string, onload func(*browser.Global, *dom.Element), onerror func(*browser.Global)) {
			g.Busy(proxyCost)
			nativeLoadImage(url, onload, onerror)
		}
		g.Freeze()
	}
}

// polyfillWorker is Chrome Zero's worker replacement: the worker script
// runs on the main thread in a synthetic scope. There is no parallelism,
// so worker "background" computation blocks the page — backward
// compatibility is sacrificed, and worker-based implicit clocks stop
// interleaving with main-thread work.
type polyfillWorker struct {
	id    int
	src   string
	alive bool

	main  *browser.Global // parent scope (main thread)
	scope *browser.Global // synthetic worker scope on the same thread

	onMessage      func(*browser.Global, browser.MessageEvent)
	onError        func(*browser.Global, *browser.WorkerError)
	scopeOnMessage func(*browser.Global, browser.MessageEvent)
	inFlight       int
}

var _ browser.Worker = (*polyfillWorker)(nil)

// polyfillIDBase offsets polyfill worker ids so they stay distinct from
// native worker ids; each environment counts up from here independently.
const polyfillIDBase = 1_000_000

func newPolyfillWorker(main *browser.Global, src string, id int) (browser.Worker, error) {
	b := main.Browser()
	script, err := b.WorkerScript(src)
	if err != nil {
		return nil, fmt.Errorf("chromezero polyfill: %w", err)
	}
	w := &polyfillWorker{id: id, src: src, alive: true, main: main}
	scope := b.NewScopeOnThread(main.Thread())
	w.scope = scope
	sb := scope.Bindings()
	// Worker-scope postMessage delivers to the parent handle — but on the
	// same thread.
	sb.PostMessage = func(data any) {
		if !w.alive {
			return
		}
		w.inFlight++
		main.Thread().PostTask(main.Thread().Now(), func(gg *browser.Global) {
			w.inFlight--
			if w.alive && w.onMessage != nil {
				w.onMessage(gg, browser.MessageEvent{Data: data, SourceWorker: w.id})
			}
		})
	}
	sb.SetOnMessage = func(cb func(*browser.Global, browser.MessageEvent)) {
		w.scopeOnMessage = cb
	}
	// Polyfill functionality loss: no importScripts, no worker location.
	sb.ImportScripts = func(url string) error {
		return fmt.Errorf("chromezero polyfill: importScripts unsupported")
	}
	sb.WorkerLocation = func() string { return "" }
	scope.Freeze()
	// Run the worker script inline on the main thread.
	main.Thread().PostTask(main.Thread().Now(), func(*browser.Global) {
		script(scope)
	})
	return w, nil
}

// ID returns the polyfill worker's id.
func (w *polyfillWorker) ID() int { return w.id }

// Src returns the worker source name.
func (w *polyfillWorker) Src() string { return w.src }

// Alive reports whether Terminate has been called.
func (w *polyfillWorker) Alive() bool { return w.alive }

// Thread returns the main thread: the polyfill has no thread of its own.
func (w *polyfillWorker) Thread() *browser.Thread { return w.main.Thread() }

// InFlight reports queued polyfill messages.
func (w *polyfillWorker) InFlight() int { return w.inFlight }

// PostMessage delivers parent→worker on the shared thread.
func (w *polyfillWorker) PostMessage(data any) {
	if !w.alive {
		return
	}
	w.inFlight++
	w.main.Thread().PostTask(w.main.Thread().Now(), func(gg *browser.Global) {
		w.inFlight--
		if w.alive && w.scopeOnMessage != nil {
			w.scopeOnMessage(w.scope, browser.MessageEvent{Data: data})
		}
	})
}

// PostMessageTransfer degrades to a plain message (no real transfer
// semantics in the polyfill).
func (w *polyfillWorker) PostMessageTransfer(data any, buf *browser.SharedBuffer) {
	w.PostMessage(data)
}

// SetOnMessage installs the parent-side handler.
func (w *polyfillWorker) SetOnMessage(cb func(*browser.Global, browser.MessageEvent)) {
	w.onMessage = cb
}

// SetOnError installs the parent-side error handler.
func (w *polyfillWorker) SetOnError(cb func(*browser.Global, *browser.WorkerError)) {
	w.onError = cb
}

// Terminate stops message delivery; there is no thread to kill.
func (w *polyfillWorker) Terminate() { w.alive = false }

// Release is a no-op for the polyfill.
func (w *polyfillWorker) Release() {}
