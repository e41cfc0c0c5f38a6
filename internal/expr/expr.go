// Package expr regenerates every table and figure of the paper's
// evaluation (§IV–§V) from the simulated substrate: Table I's defense
// matrix, Table II's measured attack values, Table III's Raptor loading
// times, Figure 2's script-parsing curves, Figure 3's Alexa CDFs, plus the
// Dromaeo, worker-creation, and compatibility numbers quoted in the text.
package expr

import (
	"jskernel/internal/defense"
	"jskernel/internal/trace"
)

// Config scales the experiments. Paper scale reproduces the published
// setup; Quick scale keeps CI fast while preserving every qualitative
// conclusion.
type Config struct {
	Seed int64
	// Reps is the measurement repetition budget per (attack, defense,
	// variant) — the paper uses 25.
	Reps int
	// AlexaSites and AlexaVisits size Figure 3 (paper: 500 sites × 3).
	AlexaSites  int
	AlexaVisits int
	// CompatSites sizes the §V-B2 similarity study (paper: 100).
	CompatSites int
	// RaptorLoads is loads per tp6 subtest (paper: 25, first skipped).
	RaptorLoads int
	// Fig2SizesMB are the script sizes swept in Figure 2.
	Fig2SizesMB []int
	// Fig2Reps is per-size repetitions in Figure 2.
	Fig2Reps int
	// Parallel is the worker-pool width for the cell-parallel drivers
	// (Table I–III, Dromaeo, worker bench, and the chaos matrices they
	// compose): 0 (the default) means one worker per available CPU, 1
	// forces a plain serial loop. Any width produces byte-identical
	// tables, verdicts, and merged traces — every cell's seed is a pure
	// function of (Seed, cell index) and results are collected in cell
	// order, so the pool width only changes wall-clock time.
	Parallel int
	// Trace, when non-nil, attaches this kernel trace session to every
	// environment a traced experiment builds (Table I–III, Dromaeo), so
	// runs can be inspected end-to-end and validated against the kernel
	// lifecycle invariants. Nil (the default) keeps tracing off.
	Trace *trace.Session
	// Obs additionally enables the browser's observability trace kinds
	// in every traced environment, feeding the internal/obs consumers
	// (profiler, forensics detectors). Only meaningful with Trace set;
	// obs events never perturb execution, so results are unchanged.
	Obs bool
}

// tracedWith attaches a (usually per-cell) trace session to a defense,
// carrying the config's obs setting along; a nil session (tracing off)
// leaves the defense untouched.
func (c Config) tracedWith(d defense.Defense, tr *trace.Session) defense.Defense {
	if tr == nil {
		return d
	}
	d = d.WithTracer(tr)
	if c.Obs {
		d = d.WithObs(true)
	}
	return d
}

// PaperConfig reproduces the published experiment sizes.
func PaperConfig() Config {
	return Config{
		Seed:        20200629, // DSN 2020's opening day
		Reps:        25,
		AlexaSites:  500,
		AlexaVisits: 3,
		CompatSites: 100,
		RaptorLoads: 25,
		Fig2SizesMB: []int{2, 4, 6, 8, 10},
		Fig2Reps:    10,
	}
}

// QuickConfig shrinks everything for tests and smoke runs.
func QuickConfig() Config {
	return Config{
		Seed:        42,
		Reps:        5,
		AlexaSites:  30,
		AlexaVisits: 1,
		CompatSites: 15,
		RaptorLoads: 4,
		Fig2SizesMB: []int{2, 6, 10},
		Fig2Reps:    3,
	}
}
