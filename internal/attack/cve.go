package attack

import (
	"fmt"

	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/sim"
	"jskernel/internal/vuln"
)

// This file implements exploit drivers for the twelve web-concurrency
// CVEs of Table I's lower half. Each driver reproduces the triggering
// invocation sequence the NVD entry (and the paper's §IV-B discussion)
// describes; whether the native layer actually reached the vulnerable
// state is decided by the vulnerability registry attached to the
// environment.

// cveHorizon bounds each exploit's virtual runtime.
const cveHorizon = 5 * sim.Second

// runFor drives the environment and normalizes simulator errors.
func runFor(env *defense.Env, d sim.Duration) error {
	return env.Browser.RunFor(d)
}

// CVE20185092 reproduces Listing 2: a worker fetch, a false worker
// termination, then an abort signal into the freed request.
func CVE20185092() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20185092,
		Label: "CVE-2018-5092",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.Net.RegisterScript("https://site.example/fetchedfile0.html", 3_000_000)
			var ctl *browser.AbortController
			b.RegisterWorkerScript("uaf-fetcher.js", func(g *browser.Global) {
				ctl = g.NewAbortController()
				g.Fetch("https://site.example/fetchedfile0.html",
					browser.FetchOptions{Signal: ctl.Signal()},
					func(*browser.Response, error) {})
				g.PostMessage("fetch-started")
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("uaf-fetcher.js")
				if err != nil {
					werr = err
					return
				}
				w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {
					w.Terminate() // false termination while the fetch is pending
					if ctl != nil {
						ctl.Abort() // abort into freed state
					}
				})
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20177843 writes IndexedDB state in private browsing; persistence
// after the session is the fingerprinting disclosure.
func CVE20177843() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20177843,
		Label: "CVE-2017-7843",
		Exploit: func(env *defense.Env) error {
			var werr error
			env.Browser.RunScript("exploit", func(g *browser.Global) {
				store, err := g.IndexedDBOpen("supercookie")
				if err != nil {
					werr = err
					return
				}
				werr = store.Put("uid", "fp-3f9a")
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20157215 mines the importScripts error message for cross-origin URL
// details.
func CVE20157215() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20157215,
		Label: "CVE-2015-7215",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("leak-import.js", func(g *browser.Global) {
				// The target URL does not exist; the vulnerable error text
				// discloses how it resolved.
				_ = g.ImportScripts("https://victim.example/private/resource.js")
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				if _, err := g.NewWorker("leak-import.js"); err != nil {
					werr = err
				}
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20143194 races a worker and the main thread on a shared buffer.
func CVE20143194() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20143194,
		Label: "CVE-2014-3194",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("racer.js", func(g *browser.Global) {
				g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
					if m.Transfer == nil {
						return
					}
					// A sustained write burst spanning several milliseconds,
					// so it overlaps the main thread's accesses.
					for i := 0; i < 100; i++ {
						_ = gg.SharedBufferWrite(m.Transfer, 0, int64(i))
						gg.Busy(50 * sim.Microsecond)
					}
				})
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				buf := g.NewSharedBuffer(2)
				w, err := g.NewWorker("racer.js")
				if err != nil {
					werr = err
					return
				}
				w.PostMessageTransfer("go", buf)
				n := 0
				var hammer func(gg *browser.Global)
				hammer = func(gg *browser.Global) {
					_, _ = gg.SharedBufferRead(buf, 0)
					_ = gg.SharedBufferWrite(buf, 1, int64(n))
					if n++; n < 30 {
						gg.SetTimeout(hammer, 0)
					}
				}
				hammer(g)
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20141719 terminates a worker while messages to it are still in
// flight.
func CVE20141719() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20141719,
		Label: "CVE-2014-1719",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("sink.js", func(g *browser.Global) {
				g.SetOnMessage(func(*browser.Global, browser.MessageEvent) {})
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("sink.js")
				if err != nil {
					werr = err
					return
				}
				for i := 0; i < 10; i++ {
					w.PostMessage(i)
				}
				w.Terminate() // in-flight messages reference freed state
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20141488 transfers a buffer out of a worker, terminates the worker,
// then uses the buffer from the main thread.
func CVE20141488() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20141488,
		Label: "CVE-2014-1488",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("transfer-out.js", func(g *browser.Global) {
				buf := g.NewSharedBuffer(8)
				_ = g.SharedBufferWrite(buf, 0, 42)
				_ = g.TransferToParent("asm-buf", buf)
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("transfer-out.js")
				if err != nil {
					werr = err
					return
				}
				w.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
					if m.Transfer == nil {
						return
					}
					w.Terminate() // frees the buffer with the worker
					_, _ = gg.SharedBufferRead(m.Transfer, 0)
				})
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20141487 reads the error message of a cross-origin worker creation.
func CVE20141487() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20141487,
		Label: "CVE-2014-1487",
		Exploit: func(env *defense.Env) error {
			var werr error
			env.Browser.RunScript("exploit", func(g *browser.Global) {
				if _, err := g.NewWorker("https://victim.example/internal/worker.js"); err == nil {
					werr = fmt.Errorf("cross-origin worker creation unexpectedly succeeded")
				}
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20136646 drops the worker handle (GC) while a reply is in flight.
func CVE20136646() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20136646,
		Label: "CVE-2013-6646",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("replier.js", func(g *browser.Global) {
				g.SetOnMessage(func(gg *browser.Global, m browser.MessageEvent) {
					// A burst of replies: later ones are still in flight
					// while the first is being handled.
					for i := 0; i < 10; i++ {
						gg.PostMessage(i)
					}
				})
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("replier.js")
				if err != nil {
					werr = err
					return
				}
				released := false
				w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {
					if !released {
						released = true
						// Drop the handle while the rest of the burst is in
						// flight — the GC race.
						w.Release()
					}
				})
				w.PostMessage("poke")
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20135602 assigns onmessage to a terminated worker.
func CVE20135602() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20135602,
		Label: "CVE-2013-5602",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("victim.js", func(g *browser.Global) {})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("victim.js")
				if err != nil {
					werr = err
					return
				}
				g.SetTimeout(func(*browser.Global) {
					w.Terminate()
					w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {})
				}, 5*sim.Millisecond)
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20131714 sends a cross-origin XHR from a worker.
func CVE20131714() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20131714,
		Label: "CVE-2013-1714",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.Net.RegisterJSON("https://victim.example/api/session", `{"token":"s3cr3t"}`)
			b.RegisterWorkerScript("sop-bypass.js", func(g *browser.Global) {
				_, _ = g.XHR("https://victim.example/api/session")
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				if _, err := g.NewWorker("sop-bypass.js"); err != nil {
					werr = err
				}
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20111190 reads the worker's location after a cross-origin redirect.
func CVE20111190() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20111190,
		Label: "CVE-2011-1190",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.SetRedirect("app-worker.js", "https://tracker.example/real.js")
			b.RegisterWorkerScript("app-worker.js", func(g *browser.Global) {
				_ = g.WorkerLocation()
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				if _, err := g.NewWorker("app-worker.js"); err != nil {
					werr = err
				}
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVE20104576 tears down the document while a worker reply is en route.
func CVE20104576() *CVEAttack {
	return &CVEAttack{
		CVE:   vuln.CVE20104576,
		Label: "CVE-2010-4576",
		Exploit: func(env *defense.Env) error {
			b := env.Browser
			b.RegisterWorkerScript("late-reply.js", func(g *browser.Global) {
				g.SetOnMessage(func(gg *browser.Global, _ browser.MessageEvent) {
					gg.PostMessage("late")
				})
			})
			var werr error
			b.RunScript("exploit", func(g *browser.Global) {
				w, err := g.NewWorker("late-reply.js")
				if err != nil {
					werr = err
					return
				}
				w.SetOnMessage(func(*browser.Global, browser.MessageEvent) {})
				g.SetTimeout(func(gg *browser.Global) {
					gg.Browser().TearDownDocument()
					w.PostMessage("poke") // reply arrives after teardown
				}, 5*sim.Millisecond)
			})
			if err := runFor(env, cveHorizon); err != nil {
				return err
			}
			return werr
		},
	}
}

// CVEAttacks returns the twelve Table I CVE rows in paper order.
func CVEAttacks() []*CVEAttack {
	return []*CVEAttack{
		CVE20185092(), CVE20177843(), CVE20157215(), CVE20143194(),
		CVE20141719(), CVE20141488(), CVE20141487(), CVE20136646(),
		CVE20135602(), CVE20131714(), CVE20111190(), CVE20104576(),
	}
}

// RequiresPrivateMode reports whether this CVE's exploit only makes
// sense in private browsing (CVE-2017-7843's precondition). Callers
// that build environments directly — schedule exploration, the service
// layer — must mirror EvaluateCVE and set EnvOptions.PrivateMode.
func (a *CVEAttack) RequiresPrivateMode() bool {
	return a.CVE == vuln.CVE20177843
}

// EvaluateCVE runs one CVE exploit against a defense once (the trigger
// is deterministic), in private browsing when the CVE requires it
// (CVE-2017-7843), and consults the vulnerability registry.
func EvaluateCVE(a *CVEAttack, d defense.Defense, baseSeed int64) Outcome {
	env := d.NewEnv(defense.EnvOptions{Seed: baseSeed + 1, PrivateMode: a.RequiresPrivateMode()})
	err := a.Exploit(env)
	exploited := env.Registry.Exploited(a.CVE)
	return Outcome{
		AttackID:  string(a.CVE),
		DefenseID: d.ID,
		Defended:  !exploited,
		Exploited: exploited,
		Err:       err,
	}
}
