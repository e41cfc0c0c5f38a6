package expr

import (
	"fmt"

	"jskernel/internal/defense"
	"jskernel/internal/expr/runner"
	"jskernel/internal/hb"
	"jskernel/internal/vuln"
)

// Race re-judging of Table I's CVE half: every (CVE, defense) cell runs
// with a streaming hb.Detector attached to its trace session, and the
// happens-before verdict — at least one data race on the CVE's channel
// target class — is compared against the experiment's own exploited/
// defended verdict. The two must agree on every cell: an exploited cell
// shows a race on its channel, a defended one shows none.
//
// The cells are the CVE half of Table1's own (table1Grid), so the actual
// verdicts here are identical to Table1's and the matrix is
// deterministic at any parallel width.

// cveChannel maps each CVE row to the shared-target class its race
// manifests on. The race verdict for a cell counts findings on this
// class only: races the same run produces on unrelated targets (e.g.
// DOM traffic) never flip a verdict.
var cveChannel = map[vuln.CVE]string{
	vuln.CVE20185092: "worker", // UAF: abort into a freed worker's fetch state
	vuln.CVE20177843: "idb",    // private-mode write reaching persistent state
	vuln.CVE20157215: "origin", // leaky importScripts error text
	vuln.CVE20143194: "buffer", // unserialized shared-buffer access interleaving
	vuln.CVE20141719: "worker", // terminate with messages in flight
	vuln.CVE20141488: "buffer", // transferable freed with its original owner
	vuln.CVE20141487: "origin", // cross-origin worker creation error
	vuln.CVE20136646: "worker", // delivery into a released worker slot
	vuln.CVE20135602: "worker", // onmessage-set on a terminated worker
	vuln.CVE20131714: "origin", // worker XHR skipping the same-origin check
	vuln.CVE20111190: "origin", // WorkerLocation after cross-origin redirect
	vuln.CVE20104576: "doc",    // delivery after document teardown
}

// CVEChannel exposes the CVE → channel-class mapping (jsk-race and
// internal/explore judge findings by it).
func CVEChannel(cve vuln.CVE) (string, bool) {
	c, ok := cveChannel[cve]
	return c, ok
}

// RaceCell is one (CVE, defense) cell of the race matrix.
type RaceCell struct {
	// Row is the CVE ID.
	Row string `json:"row"`
	// Defense is the defense column ID.
	Defense string `json:"defense"`
	// ActualDefended is the experiment's own verdict for the cell.
	ActualDefended bool `json:"actual_defended"`
	// Channel is the CVE's shared-target class (the judged channel).
	Channel string `json:"channel"`
	// ChannelRaces counts deduplicated races on the channel class.
	ChannelRaces int `json:"channel_races"`
	// TotalRaces counts all races the cell produced, any class.
	TotalRaces int `json:"total_races"`
	// Flagged is the race verdict: the happens-before analysis found at
	// least one race on the CVE's channel.
	Flagged bool `json:"flagged"`
	// Findings carries the channel-class races (flagged cells only),
	// each with both access sites and vector-clock evidence.
	Findings []hb.Finding `json:"findings,omitempty"`
}

// RaceResult is the full race matrix over Table I's CVE half.
type RaceResult struct {
	Cells []RaceCell `json:"cells"`
	// Mismatches lists cells where the race verdict disagrees with the
	// actual verdict; empty in a healthy run.
	Mismatches []string `json:"mismatches"`
}

// Findings returns the flagged cells.
func (r *RaceResult) Findings() []RaceCell {
	var out []RaceCell
	for _, c := range r.Cells {
		if c.Flagged {
			out = append(out, c)
		}
	}
	return out
}

// RaceTable1 runs the CVE half of the Table I matrix with a streaming
// race detector on every cell. Each cell traces into its own retain-off
// session; nothing is buffered or absorbed.
func RaceTable1(cfg Config) (*RaceResult, error) {
	g := newTable1Grid(cfg, defense.TableIDefenses())
	var cells []Cell
	for _, at := range g.cveAt {
		for _, i := range at {
			cells = append(cells, g.cells[i])
		}
	}
	outs := runner.Map(cfg.Parallel, len(cells), func(i int) CellResult {
		return RunCell(cells[i], Instruments{Races: true})
	})

	res := &RaceResult{Mismatches: []string{}}
	for i, o := range outs {
		row := cells[i].CVE.CVE
		channel := cveChannel[row]
		cell := RaceCell{
			Row:            string(row),
			Defense:        cells[i].Defense.ID,
			ActualDefended: o.Outcome.Defended,
			Channel:        channel,
			TotalRaces:     len(o.Races),
		}
		for _, f := range o.Races {
			if f.Class == channel {
				cell.ChannelRaces++
				cell.Findings = append(cell.Findings, f)
			}
		}
		cell.Flagged = cell.ChannelRaces > 0
		res.Cells = append(res.Cells, cell)
		if cell.Flagged == cell.ActualDefended {
			res.Mismatches = append(res.Mismatches, fmt.Sprintf(
				"%s/%s: actual defended=%v, race flagged=%v (%d races on %q, %d total)",
				cell.Row, cell.Defense, cell.ActualDefended, cell.Flagged,
				cell.ChannelRaces, channel, cell.TotalRaces))
		}
	}
	return res, nil
}
