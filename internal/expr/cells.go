package expr

import (
	"jskernel/internal/expr/runner"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// This file adapts the experiment drivers to the worker pool in
// internal/expr/runner. A driver flattens its matrix into cells —
// independent units of work that build their own environments — and
// runCells executes them at cfg.Parallel width while keeping every
// observable output byte-identical to a serial run (Table I's matrices
// run their cells through RunCell over the same pool; see cell.go):
//
//   - seeds: each cell receives sim.DeriveSeed(cfg.Seed, index), a pure
//     function of its position in the canonical enumeration, never of
//     which worker ran it or when. (Matched-pair drivers like Table III
//     deliberately ignore the derived seed and share cfg.Seed across
//     columns — the pairing is the experiment.)
//   - traces: each cell traces into a private session; each part is
//     absorbed into cfg.Trace in cell-index order as soon as every
//     lower-index part is in, then dropped, so the merged trace is
//     independent of completion order and only parts still in flight
//     (or finished early) are held.
//   - errors: the lowest-index cell error is returned, exactly the one
//     a serial loop would have hit first.

// cellResult pairs one cell's value with its error and trace part.
type cellResult[T any] struct {
	val T
	err error
	tr  *trace.Session
}

// runCells executes n cells on the config's worker pool and returns
// their values in cell order. fn receives the cell index, the derived
// per-cell seed, and a private trace session (nil when cfg.Trace is
// nil); it must confine all mutation to state it creates itself.
func runCells[T any](cfg Config, n int, fn func(i int, seed int64, tr *trace.Session) (T, error)) ([]T, error) {
	vals := make([]T, n)
	var err error
	runner.Ordered(cfg.Parallel, n, func(i int) cellResult[T] {
		var tr *trace.Session
		if cfg.Trace != nil {
			tr = trace.NewSession()
		}
		v, err := fn(i, sim.DeriveSeed(cfg.Seed, int64(i)), tr)
		if tr != nil {
			tr.Close()
		}
		return cellResult[T]{val: v, err: err, tr: tr}
	}, func(i int, o cellResult[T]) {
		if err != nil {
			return
		}
		if err = o.err; err == nil && o.tr != nil {
			err = cfg.Trace.Absorb(o.tr)
		}
		vals[i] = o.val
	})
	if err != nil {
		return nil, err
	}
	return vals, nil
}
