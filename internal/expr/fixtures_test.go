package expr

import (
	"sync"
	"testing"
)

// Shared matrices, each computed at most once per test binary: several
// gates read the same result (a golden test and its matrix gate, the
// verdict cross-checks against Table I), and none of them mutates it.

// fixture memoizes one matrix computation.
type fixture[T any] struct {
	once sync.Once
	val  T
	err  error
}

func (f *fixture[T]) get(t *testing.T, build func() (T, error)) T {
	t.Helper()
	f.once.Do(func() { f.val, f.err = build() })
	if f.err != nil {
		t.Fatal(f.err)
	}
	return f.val
}

var (
	quickTable1Fix fixture[*Table1Result]
	quickChaosFix  fixture[*ChaosResult]
	table1Reps3Fix fixture[*Table1Result]
	// The forensic and race matrices, keyed by the pool widths the
	// gates compare.
	forensicsFix = map[int]*fixture[*ForensicsResult]{1: {}, 8: {}}
	raceFix      = map[int]*fixture[*RaceResult]{1: {}, 8: {}}
)

// forensicsConfig is the shared scaled-down matrix: quick seed, three
// reps — enough for Cohen's d to separate the undefended cells while
// keeping the forensic and race matrices fast.
func forensicsConfig(parallel int) Config {
	cfg := QuickConfig()
	cfg.Reps = 3
	cfg.Parallel = parallel
	return cfg
}

// quickTable1 is Table I at QuickConfig.
func quickTable1(t *testing.T) *Table1Result {
	return quickTable1Fix.get(t, func() (*Table1Result, error) { return Table1(QuickConfig()) })
}

// quickChaos is the chaos matrix at QuickConfig.
func quickChaos(t *testing.T) *ChaosResult {
	return quickChaosFix.get(t, func() (*ChaosResult, error) { return Chaos(QuickConfig()) })
}

// table1Reps3 is the plain (obs-off) Table I the forensic and race
// verdicts are cross-checked against.
func table1Reps3(t *testing.T) *Table1Result {
	return table1Reps3Fix.get(t, func() (*Table1Result, error) { return Table1(forensicsConfig(8)) })
}

// forensicsAt is the forensic matrix at pool width 1 or 8.
func forensicsAt(t *testing.T, parallel int) *ForensicsResult {
	return forensicsFix[parallel].get(t, func() (*ForensicsResult, error) {
		return ForensicsTable1(forensicsConfig(parallel))
	})
}

// raceAt is the race matrix at pool width 1 or 8.
func raceAt(t *testing.T, parallel int) *RaceResult {
	return raceFix[parallel].get(t, func() (*RaceResult, error) {
		return RaceTable1(forensicsConfig(parallel))
	})
}
