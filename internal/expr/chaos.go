package expr

import (
	"fmt"
	"sort"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/fault"
	"jskernel/internal/report"
)

// sortedCellKeys returns a verdict map's keys in sorted order, so cell
// walks are independent of map iteration order.
func sortedCellKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// ChaosFlip is one Table I cell whose verdict changed under a fault
// plan.
type ChaosFlip struct {
	Row       string // attack/CVE row identifier
	DefenseID string
	// Baseline and Faulted are the defended verdicts without and with
	// the plan.
	Baseline bool
	Faulted  bool
}

// String formats a flip for reports.
func (f ChaosFlip) String() string {
	return fmt.Sprintf("%s × %s: %s → %s", f.Row, f.DefenseID,
		report.Mark(f.Baseline), report.Mark(f.Faulted))
}

// ChaosPlanResult compares one fault plan's matrix against the
// baseline.
type ChaosPlanResult struct {
	Plan *fault.Plan
	// Matrix is the full Table I result under the plan.
	Matrix *Table1Result
	// Weakened lists cells that flipped defended → vulnerable: a fault
	// plan breaking a security guarantee. Must be empty.
	Weakened []ChaosFlip
	// Masked lists cells that flipped vulnerable → defended: fault
	// noise hiding an attack that baseline finds. Informational.
	Masked []ChaosFlip
	// Cells is the number of verdict cells compared.
	Cells int
	// Faults aggregates the faults injected across every run of the
	// plan's matrix, proving the plan actually fired.
	Faults fault.Counts
}

// ChaosResult is the full chaos-matrix experiment: the baseline
// Table I verdicts re-evaluated under every standard fault plan.
type ChaosResult struct {
	Baseline *Table1Result
	Plans    []*ChaosPlanResult
	Table    *report.Table
}

// Weakened reports the total defended → vulnerable flips across all
// plans — the experiment's headline number, asserted zero.
func (r *ChaosResult) Weakened() int {
	n := 0
	for _, p := range r.Plans {
		n += len(p.Weakened)
	}
	return n
}

// Chaos re-runs the Table I attack × defense matrix under each seeded
// fault plan and compares every security verdict against the fault-free
// baseline. The survival claim it checks: deterministic fault injection
// at every layer must never weaken a defense (flip defended →
// vulnerable). Each run remains a pure function of (defense, workload,
// fault plan, seed), so the whole experiment is reproducible
// byte-for-byte.
func Chaos(cfg Config) (*ChaosResult, error) {
	base, err := Table1(cfg)
	if err != nil {
		return nil, err
	}
	res := &ChaosResult{Baseline: base}

	tbl := &report.Table{
		Title:   "Chaos matrix: Table I verdicts under seeded fault plans",
		Columns: []string{"Fault plan", "Cells", "Weakened", "Masked", "Faults injected"},
		Notes: []string{
			"Weakened = defended cells that became vulnerable under faults (must be 0)",
			"Masked = vulnerable cells that faults happened to hide (informational)",
		},
	}

	for _, plan := range fault.StandardPlans() {
		if plan.Counter == nil {
			plan.Counter = &fault.AtomicCounts{}
		}
		defenses := defense.TableIDefenses()
		for i := range defenses {
			defenses[i] = defenses[i].WithFaults(plan)
		}
		m, err := table1Matrix(cfg, defenses)
		if err != nil {
			return nil, err
		}
		pr := &ChaosPlanResult{Plan: plan, Matrix: m}
		// Compare cells in sorted (row, defense) order so the Weakened
		// and Masked flip lists come out in a reproducible order.
		compare := func(rows map[string]map[string]bool) {
			for _, row := range sortedCellKeys(rows) {
				perDefense := rows[row]
				for _, id := range sortedCellKeys(perDefense) {
					baseDefended := perDefense[id]
					pr.Cells++
					faulted, ok := m.Defended(row, id)
					if !ok {
						// Matrix shape never changes; treat a missing
						// cell as a weakened verdict so it cannot pass
						// silently.
						pr.Weakened = append(pr.Weakened, ChaosFlip{Row: row, DefenseID: id, Baseline: baseDefended})
						continue
					}
					if baseDefended == faulted {
						continue
					}
					flip := ChaosFlip{Row: row, DefenseID: id, Baseline: baseDefended, Faulted: faulted}
					if baseDefended {
						pr.Weakened = append(pr.Weakened, flip)
					} else {
						pr.Masked = append(pr.Masked, flip)
					}
				}
			}
		}
		compare(verdictCells(base.Timing))
		compare(verdictCells(base.CVE))
		pr.Faults = plan.Counter.Snapshot()
		res.Plans = append(res.Plans, pr)
		tbl.AddRow(plan.Name,
			fmt.Sprintf("%d", pr.Cells),
			fmt.Sprintf("%d", len(pr.Weakened)),
			fmt.Sprintf("%d", len(pr.Masked)),
			pr.Faults.String())
	}
	res.Table = tbl
	return res, nil
}

// verdictCells projects an outcome matrix onto its defended bits.
func verdictCells(m map[string]map[string]attack.Outcome) map[string]map[string]bool {
	out := make(map[string]map[string]bool, len(m))
	for row, per := range m {
		out[row] = make(map[string]bool, len(per))
		for id, o := range per {
			out[row][id] = o.Defended
		}
	}
	return out
}
