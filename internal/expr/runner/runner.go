// Package runner executes independent experiment cells on a bounded
// worker pool while keeping results deterministic.
//
// The experiment drivers (Table I/II/III, perf, chaos) enumerate their
// work as a flat list of cells — one (attack, defense, rep) coordinate
// each, with a seed derived purely from (Config.Seed, cell index) via
// sim.DeriveSeed. Each cell builds its own simulator, browser, and
// kernel.Shared, so cells share no mutable state and can execute
// in any real-time order. Ordered hands results to the caller in cell
// order, each as soon as every lower-index result is in, and Map
// collects them into a slice indexed by cell; either way the canonical
// order is restored: rendered tables, verdicts, and merged traces are
// byte-identical whether the matrix ran on one worker or many.
//
// This package is the single sanctioned bridge between the
// deterministic discrete-event world and OS threads. Goroutines exist
// only inside Ordered, never escape it, and never touch a simulator
// that another goroutine owns.
package runner

import (
	"runtime"
	"sync/atomic"
)

// cellPanic carries a worker panic back to the caller's goroutine.
type cellPanic struct{ value any }

// Width resolves a Parallel config value to a concrete worker count for
// n cells: 0 (or negative) means one worker per available CPU, and the
// pool never exceeds the number of cells.
func Width(parallel, n int) int {
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	if parallel > n {
		parallel = n
	}
	if parallel < 1 {
		parallel = 1
	}
	return parallel
}

// Map evaluates fn(i) for every i in [0, n) on the pool and returns
// the results in index order; see Ordered.
func Map[T any](parallel, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	Ordered(parallel, n, fn, func(i int, v T) { out[i] = v })
	return out
}

// result is one cell's outcome on its way from a worker to the caller.
// A negative index marks a worker that has stopped.
type result[T any] struct {
	i int
	v T
	p *cellPanic
}

// Ordered evaluates fn(i) for every i in [0, n) and calls deliver(i, v)
// in index order on the calling goroutine, each as soon as every
// lower-index result has been delivered, so the caller can fold a result
// in and drop it while later cells still run. With width 1 (after Width
// resolution) it is a plain loop on the calling goroutine. Otherwise a
// pool of workers pulls indices from an atomic counter and sends each
// result to the caller, which holds the ones that finish early until
// their turn; a worker blocks while the caller is delivering, so at
// most about two results per worker wait beyond those held.
//
// If any fn call panics, Ordered delivers every lower-index result,
// waits for the pool to drain, and re-panics with the panic value of the
// lowest-index failing cell — the same panic, after the same
// deliveries, a serial loop would have produced. If deliver panics, the
// pool stops pulling cells and drains before the panic continues.
func Ordered[T any](parallel, n int, fn func(int) T, deliver func(int, T)) {
	if n <= 0 {
		return
	}
	width := Width(parallel, n)
	if width == 1 {
		for i := 0; i < n; i++ {
			deliver(i, fn(i))
		}
		return
	}

	var next atomic.Int64
	var stop atomic.Bool
	// One slot per worker: a worker that finishes while the caller is
	// delivering parks its result and blocks only on its next one.
	results := make(chan result[T], width)
	for w := 0; w < width; w++ {
		// Workers compute disjoint cells and hand each result to the
		// caller; determinism is restored by index-ordered delivery.
		go func() { //jsk:lint-ignore goroutinescope runner.Ordered is the sanctioned worker-pool bridge; goroutines never outlive the call or share simulator state
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					break
				}
				res := result[T]{i: i}
				res.p = runCell(i, fn, &res.v)
				results <- res
				if res.p != nil {
					// Abandon the remaining cells, as a serial loop
					// would after the first panic.
					break
				}
			}
			results <- result[T]{i: -1}
		}()
	}
	live := width
	defer func() {
		// Drain on every way out, a panicking deliver included, so no
		// worker outlives the call.
		stop.Store(true)
		for live > 0 {
			if (<-results).i < 0 {
				live--
			}
		}
	}()

	held := make(map[int]result[T], width)
	want := 0
	var failed *cellPanic
	for live > 0 {
		res := <-results
		if res.i < 0 {
			live--
			continue
		}
		if failed != nil {
			continue
		}
		held[res.i] = res
		for {
			r, ok := held[want]
			if !ok {
				break
			}
			delete(held, want)
			if r.p != nil {
				failed = r.p
				stop.Store(true)
				clear(held)
				break
			}
			deliver(want, r.v)
			want++
		}
	}
	if failed != nil {
		panic(failed.value)
	}
}

// runCell runs one cell, capturing a panic instead of unwinding the
// worker goroutine.
func runCell[T any](i int, fn func(int) T, out *T) (p *cellPanic) {
	defer func() {
		if r := recover(); r != nil {
			p = &cellPanic{value: r}
		}
	}()
	*out = fn(i)
	return nil
}
