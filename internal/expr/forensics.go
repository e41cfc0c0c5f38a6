package expr

import (
	"fmt"

	"jskernel/internal/defense"
	"jskernel/internal/expr/runner"
	"jskernel/internal/obs"
)

// Online attack forensics over the Table I matrix: every cell runs with
// observability events on, streaming its trace into the obs layer, and
// the forensic verdict — reconstructed from the event stream alone — is
// compared against the actual experiment verdict computed from the
// harness's own measurements. The two must agree on every cell: an
// undefended cell is flagged, a defended cell produces no finding.
//
// The cells are Table1's own (table1Grid), so the forensic matrix is
// deterministic at any parallel width and its actual verdicts are
// identical to Table1's. Observability events never perturb execution,
// which is what keeps the two matrices comparable.

// ForensicsCell is one (row, defense) cell of the forensic matrix.
type ForensicsCell struct {
	// Row is the attack ID (timing rows) or CVE (lower half).
	Row string `json:"row"`
	// Defense is the defense column ID.
	Defense string `json:"defense"`
	// Kind is "timing" or "cve".
	Kind string `json:"kind"`
	// ActualDefended is the experiment's own verdict for the cell.
	ActualDefended bool `json:"actual_defended"`
	// Verdict is the forensic verdict. A timing cell's signatures are
	// its first repetition's: the attack-construction evidence
	// accompanying the verdict.
	Verdict
}

// ForensicsResult is the full forensic matrix.
type ForensicsResult struct {
	Cells []ForensicsCell `json:"cells"`
	// Mismatches lists cells where the forensic verdict disagrees with
	// the actual verdict; empty in a healthy run.
	Mismatches []string `json:"mismatches"`
}

// Findings returns the flagged cells — the forensic report's findings.
// Defended cells never appear here.
func (r *ForensicsResult) Findings() []ForensicsCell {
	var out []ForensicsCell
	for _, c := range r.Cells {
		if c.Flagged {
			out = append(out, c)
		}
	}
	return out
}

// ForensicsTable1 runs the Table I matrix with streaming forensics.
// Every cell traces into its own retain-off session (cfg.Trace is not
// used: the obs consumers see each cell's stream directly and nothing
// needs to be buffered or absorbed).
func ForensicsTable1(cfg Config) (*ForensicsResult, error) {
	g := newTable1Grid(cfg, defense.TableIDefenses())
	outs := runner.Map(cfg.Parallel, len(g.cells), func(i int) CellResult {
		return RunCell(g.cells[i], Instruments{Forensics: true})
	})

	res := &ForensicsResult{Mismatches: []string{}}
	addCell := func(c ForensicsCell) {
		res.Cells = append(res.Cells, c)
		if c.Flagged == c.ActualDefended {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf(
				"%s/%s: actual defended=%v, forensic flagged=%v",
				c.Row, c.Defense, c.ActualDefended, c.Flagged))
		}
	}

	for ri, a := range g.timing {
		for di, d := range g.defenses {
			reps := g.timingReps(outs, ri, di)
			readings := make([]obs.CellReadings, len(reps))
			for r, o := range reps {
				readings[r] = o.Readings[0]
			}
			channels, defended := obs.JudgeTiming(readings)
			cell := ForensicsCell{
				Row:            a.ID,
				Defense:        d.ID,
				Kind:           "timing",
				ActualDefended: g.mergedOutcome(outs, ri, di).Defended,
				Verdict:        Verdict{Flagged: !defended, Channels: channels},
			}
			if cell.Flagged {
				cell.Signatures = reps[0].Signatures
			}
			addCell(cell)
		}
	}
	for ci, a := range g.cves {
		for di, d := range g.defenses {
			o := outs[g.cveAt[ci][di]]
			addCell(ForensicsCell{
				Row:            string(a.CVE),
				Defense:        d.ID,
				Kind:           "cve",
				ActualDefended: o.Outcome.Defended,
				Verdict:        *o.Verdict,
			})
		}
	}
	return res, nil
}
