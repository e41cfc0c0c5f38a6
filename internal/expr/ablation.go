package expr

import (
	"fmt"
	"sort"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/policy"
	"jskernel/internal/report"
	"jskernel/internal/workload"
)

// This file implements the ablation studies DESIGN.md calls out: how the
// kernel's design parameters trade security against compatibility and
// overhead.
//
//   A1  scheduling quantum sweep — a coarser logical clock costs nothing
//       in security (determinism is what defends, not granularity) but
//       degrades compatibility: apps that read time see coarser values.
//   A2  policy ablation — deterministic scheduling alone defeats the
//       timing rows but leaves the CVE rows exploitable; rules alone
//       (hypothetically, without determinism) would do the reverse.

// QuantumAblationRow is one row of the quantum sweep.
type QuantumAblationRow struct {
	QuantumMicros int64
	// SVGDefended reports whether the SVG filtering attack stays defeated.
	SVGDefended bool
	// AppDiffs counts observably different CodePen apps (of 20).
	AppDiffs int
	// DromaeoMean is the mean micro-benchmark overhead fraction.
	DromaeoMean float64
}

// QuantumAblation sweeps the kernel's scheduling quantum.
func QuantumAblation(cfg Config) ([]QuantumAblationRow, *report.Table, error) {
	quanta := []int64{100, 1000, 4000, 16_000}
	rows := make([]QuantumAblationRow, 0, len(quanta))
	tbl := &report.Table{
		Title:   "Ablation A1: scheduling quantum vs security / compatibility / overhead",
		Columns: []string{"Quantum (µs)", "SVG defended", "App diffs (of 20)", "Dromaeo overhead"},
		Notes: []string{
			"determinism defends at every quantum; compatibility degrades as the logical clock coarsens",
		},
	}
	for _, q := range quanta {
		p := policy.FullDefense()
		p.PolicyName = fmt.Sprintf("jskernel-q%dus", q)
		p.QuantumMicros = q
		d := defense.JSKernelWithPolicy("chrome", p.PolicyName, p)

		svg := RunCell(Cell{Timing: attack.SVGFilteringAttack(), Defense: d, Reps: cfg.Reps, Seed: cfg.Seed}, Instruments{}).Outcome

		diffs, _, err := workload.CompatCount(d, defense.Chrome(), cfg.Seed)
		if err != nil {
			return nil, nil, fmt.Errorf("ablation quantum %d: %w", q, err)
		}

		base, err := workload.RunDromaeo(defense.Chrome(), cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		with, err := workload.RunDromaeo(d, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		over := workload.DromaeoOverheads(base, with)
		// Sum in sorted key order — float accumulation in map order
		// would perturb low bits between identical runs.
		overIDs := make([]string, 0, len(over))
		for id := range over {
			overIDs = append(overIDs, id)
		}
		sort.Strings(overIDs)
		mean := 0.0
		for _, id := range overIDs {
			mean += over[id]
		}
		if len(over) > 0 {
			mean /= float64(len(over))
		}

		row := QuantumAblationRow{
			QuantumMicros: q,
			SVGDefended:   svg.Defended,
			AppDiffs:      diffs,
			DromaeoMean:   mean,
		}
		rows = append(rows, row)
		tbl.AddRow(
			fmt.Sprintf("%d", q),
			report.Mark(row.SVGDefended),
			fmt.Sprintf("%d", row.AppDiffs),
			fmt.Sprintf("%.2f%%", row.DromaeoMean*100),
		)
	}
	return rows, tbl, nil
}

// PolicyAblationRow is one row of the policy-component ablation.
type PolicyAblationRow struct {
	Config        string
	TimingBlocked int // of 2 probed timing attacks
	CVEBlocked    int // of 12 CVEs
}

// PolicyAblation compares the kernel's two mechanisms in isolation:
// deterministic scheduling without CVE rules, and the full defense.
func PolicyAblation(cfg Config) ([]PolicyAblationRow, *report.Table, error) {
	detOnly := policy.Deterministic()
	detOnly.PolicyName = "det-only"
	variants := []struct {
		name string
		d    defense.Defense
	}{
		{"deterministic scheduling only", defense.JSKernelWithPolicy("chrome", "jskernel-det-only", detOnly)},
		{"deterministic + CVE policies (full)", defense.JSKernel("chrome")},
	}
	probes := []*attack.TimingAttack{attack.SVGFilteringAttack(), attack.CacheAttack()}

	rows := make([]PolicyAblationRow, 0, len(variants))
	tbl := &report.Table{
		Title:   "Ablation A2: which mechanism defends what",
		Columns: []string{"Configuration", "Timing attacks blocked", "CVEs blocked"},
		Notes: []string{
			"determinism alone defeats implicit clocks; only the manually specified (or synthesized) policies break CVE trigger sequences",
		},
	}
	for _, v := range variants {
		row := PolicyAblationRow{Config: v.name}
		for _, a := range probes {
			if RunCell(Cell{Timing: a, Defense: v.d, Reps: cfg.Reps, Seed: cfg.Seed}, Instruments{}).Outcome.Defended {
				row.TimingBlocked++
			}
		}
		for _, a := range attack.CVEAttacks() {
			if RunCell(Cell{CVE: a, Defense: v.d, Seed: cfg.Seed}, Instruments{}).Outcome.Defended {
				row.CVEBlocked++
			}
		}
		rows = append(rows, row)
		tbl.AddRow(v.name,
			fmt.Sprintf("%d / %d", row.TimingBlocked, len(probes)),
			fmt.Sprintf("%d / 12", row.CVEBlocked))
	}
	return rows, tbl, nil
}
