// Package runner executes independent experiment cells on a bounded
// worker pool while keeping results deterministic.
//
// The experiment drivers (Table I/II/III, perf, chaos) enumerate their
// work as a flat list of cells — one (attack, defense, rep) coordinate
// each, with a seed derived purely from (Config.Seed, cell index) via
// sim.DeriveSeed. Each cell builds its own simulator, browser, and
// kernel.Shared, so cells share no mutable state and can execute
// in any real-time order. Map collects results into a slice indexed by
// cell, which restores the canonical order: rendered tables, verdicts,
// and merged traces are byte-identical whether the matrix ran on one
// worker or many.
//
// This package is the single sanctioned bridge between the
// deterministic discrete-event world and OS threads. Goroutines exist
// only inside Map, never escape it, and never touch a simulator that
// another goroutine owns.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Cell names one coordinate of an experiment matrix. Drivers fill the
// fields they use; the runner itself only cares about Index.
type Cell struct {
	Index   int    // position in the canonical (serial) enumeration
	Attack  string // attack/workload identifier, for labels and errors
	Defense string // defense identifier
	Rep     int    // repetition number within the (attack, defense) pair
	Seed    int64  // per-cell seed, derived from (Config.Seed, Index)
}

func (c Cell) String() string {
	return fmt.Sprintf("cell %d (%s/%s rep %d)", c.Index, c.Attack, c.Defense, c.Rep)
}

// cellPanic carries a worker panic back to the caller's goroutine.
type cellPanic struct {
	index int
	value any
}

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

// Map evaluates fn(i) for every i in [0, n) and returns the results in
// index order. With width 1 (after Width resolution) it degenerates to
// a plain loop on the calling goroutine. Otherwise a pool of workers
// pulls indices from an atomic counter; each worker writes only its own
// disjoint result slots, so no synchronization beyond the final join is
// needed and the returned slice is independent of scheduling order.
//
// If any fn call panics, Map waits for the pool to drain and then
// re-panics with the panic value of the lowest-index failing cell — the
// same panic a serial loop would have surfaced first.
func Map[T any](parallel, n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	width := Width(parallel, n)
	if width == 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}

	var next atomic.Int64
	panics := make([]*cellPanic, width)
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		// Workers only compute disjoint out[i] slots and join before Map
		// returns; determinism is restored by index-ordered collection.
		go func(w int) { //jsk:lint-ignore goroutinescope runner.Map is the sanctioned worker-pool bridge; goroutines never outlive the call or share simulator state
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !runCell(i, fn, &out[i], &panics[w]) {
					return
				}
			}
		}(w)
	}
	wg.Wait()

	var first *cellPanic
	for _, p := range panics {
		if p != nil && (first == nil || p.index < first.index) {
			first = p
		}
	}
	if first != nil {
		panic(first.value)
	}
	return out
}

// runCell runs one cell, capturing a panic instead of unwinding the
// worker goroutine. It reports whether the worker should keep pulling
// indices (false after a panic: remaining cells are abandoned, exactly
// as a serial loop would abandon everything after the first panic).
func runCell[T any](i int, fn func(int) T, out *T, slot **cellPanic) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if *slot == nil || i < (*slot).index {
				*slot = &cellPanic{index: i, value: r}
			}
			ok = false
		}
	}()
	*out = fn(i)
	return true
}
