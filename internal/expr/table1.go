package expr

import (
	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/expr/runner"
	"jskernel/internal/report"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// Table1Result is the full defense matrix with per-cell outcomes, so
// callers can assert on verdicts as well as render the table.
type Table1Result struct {
	Defenses []defense.Defense
	// Timing[attackID][defenseID] and CVE[cveID][defenseID] hold verdicts.
	Timing map[string]map[string]attack.Outcome
	CVE    map[string]map[string]attack.Outcome
	Table  *report.Table
}

// Defended reports a cell's verdict.
func (r *Table1Result) Defended(rowID, defenseID string) (bool, bool) {
	if m, ok := r.Timing[rowID]; ok {
		if o, ok := m[defenseID]; ok {
			return o.Defended, true
		}
	}
	if m, ok := r.CVE[rowID]; ok {
		if o, ok := m[defenseID]; ok {
			return o.Defended, true
		}
	}
	return false, false
}

// Table1 evaluates every attack of Table I against every defense column.
func Table1(cfg Config) (*Table1Result, error) {
	return table1Matrix(cfg, defense.TableIDefenses())
}

// table1Grid is Table I's canonical cell enumeration, shared by every
// matrix over it — Table1 (and the chaos matrix over that),
// ForensicsTable1, RaceTable1 — and by Table1CVECells. Rows come in
// Table I's layout: the setTimeout clock group, then the
// requestAnimationFrame group, then the CVE rows. Every timing (row,
// defense) pair contributes one single-rep cell per repetition, so reps
// of one pair can run on different workers; every CVE (row, defense)
// pair contributes one cell. Cell i of that order is seeded
// sim.DeriveSeed(cfg.Seed, i), a pure function of its position, so
// neighbouring cells never share random streams and every result is
// identical at any pool width.
type table1Grid struct {
	timing   []*attack.TimingAttack
	firstRAF int // index of the first requestAnimationFrame row
	cves     []*attack.CVEAttack
	defenses []defense.Defense
	reps     int
	cells    []Cell
	// timingAt[ri][di] indexes the first of timing row ri's reps under
	// defense di (the other reps follow it); cveAt[ci][di] indexes CVE
	// row ci's cell under defense di.
	timingAt, cveAt [][]int
}

// newTable1Grid enumerates the matrix of defenses at cfg's seed and
// repetition budget.
func newTable1Grid(cfg Config, defenses []defense.Defense) *table1Grid {
	g := &table1Grid{cves: attack.CVEAttacks(), defenses: defenses, reps: cfg.Reps}
	if g.reps <= 0 {
		g.reps = attack.Reps
	}
	for _, a := range attack.TimingAttacks() {
		if a.ClockGroup == "setTimeout" {
			g.timing = append(g.timing, a)
		}
	}
	g.firstRAF = len(g.timing)
	for _, a := range attack.TimingAttacks() {
		if a.ClockGroup != "setTimeout" {
			g.timing = append(g.timing, a)
		}
	}
	add := func(c Cell) int {
		c.Seed = sim.DeriveSeed(cfg.Seed, int64(len(g.cells)))
		g.cells = append(g.cells, c)
		return len(g.cells) - 1
	}
	for _, a := range g.timing {
		at := make([]int, len(defenses))
		for di, d := range defenses {
			at[di] = len(g.cells)
			for rep := 0; rep < g.reps; rep++ {
				add(Cell{Timing: a, Defense: d, Reps: 1})
			}
		}
		g.timingAt = append(g.timingAt, at)
	}
	for _, a := range g.cves {
		at := make([]int, len(defenses))
		for di, d := range defenses {
			at[di] = add(Cell{CVE: a, Defense: d})
		}
		g.cveAt = append(g.cveAt, at)
	}
	return g
}

// timingReps returns timing row ri's per-rep results under defense di,
// in rep order.
func (g *table1Grid) timingReps(outs []CellResult, ri, di int) []CellResult {
	i := g.timingAt[ri][di]
	return outs[i : i+g.reps]
}

// mergedOutcome judges a timing pair's merged reps — the statistics
// RunCell computes for the pair run serially as one cell.
func (g *table1Grid) mergedOutcome(outs []CellResult, ri, di int) attack.Outcome {
	reps := g.timingReps(outs, ri, di)
	parts := make([]attack.RepSamples, len(reps))
	for r, o := range reps {
		parts[r] = o.Samples[0]
	}
	return g.timing[ri].AssembleOutcome(g.defenses[di].ID, attack.MergeSamples(parts))
}

// Table1CVECells returns one CVE row's Table I cells, one per defense
// column in TableIDefenses order, seeded exactly as the matrices seed
// them, so a single cell re-run reproduces the matrices' findings.
func Table1CVECells(cfg Config, cve vuln.CVE) ([]Cell, bool) {
	ci, _, ok := CVERow(cve)
	if !ok {
		return nil, false
	}
	g := newTable1Grid(cfg, defense.TableIDefenses())
	cells := make([]Cell, len(g.defenses))
	for di, i := range g.cveAt[ci] {
		cells[di] = g.cells[i]
	}
	return cells, true
}

// TimingRow resolves a Table I timing row by attack ID.
func TimingRow(id string) (*attack.TimingAttack, bool) {
	for _, a := range attack.TimingAttacks() {
		if a.ID == id {
			return a, true
		}
	}
	return nil, false
}

// CVERow resolves a Table I CVE row and its index in CVEAttacks order.
func CVERow(cve vuln.CVE) (int, *attack.CVEAttack, bool) {
	for i, a := range attack.CVEAttacks() {
		if a.CVE == cve {
			return i, a, true
		}
	}
	return 0, nil, false
}

// Table1Column resolves a Table I defense column by ID and its index in
// TableIDefenses order.
func Table1Column(id string) (int, defense.Defense, bool) {
	for i, d := range defense.TableIDefenses() {
		if d.ID == id {
			return i, d, true
		}
	}
	return 0, defense.Defense{}, false
}

// table1Matrix runs the Table I attack matrix against an arbitrary
// defense list — the chaos experiment reuses it with fault-carrying
// defense variants. The grid's cells run on the cfg.Parallel worker
// pool; with cfg.Trace set, each cell retains its records and its part
// is absorbed into cfg.Trace in cell order, as soon as every
// lower-index part is in, and then dropped. The merged trace is
// independent of completion order, and only the parts of cells still
// in flight or finished early are held.
func table1Matrix(cfg Config, defenses []defense.Defense) (*Table1Result, error) {
	var absorb func(*trace.Session) error
	if cfg.Trace != nil {
		absorb = cfg.Trace.Absorb
	}
	return table1MatrixInto(cfg, defenses, absorb)
}

// table1MatrixInto is table1Matrix with each cell's closed part handed
// to absorb in cell order; a nil absorb runs the cells untraced.
func table1MatrixInto(cfg Config, defenses []defense.Defense, absorb func(*trace.Session) error) (*Table1Result, error) {
	g := newTable1Grid(cfg, defenses)
	traced := absorb != nil
	ins := Instruments{Records: traced, Obs: traced && cfg.Obs}
	outs := make([]CellResult, len(g.cells))
	var err error
	runner.Ordered(cfg.Parallel, len(g.cells), func(i int) CellResult {
		return RunCell(g.cells[i], ins)
	}, func(i int, o CellResult) {
		if traced && err == nil {
			err = absorb(o.Trace)
		}
		o.Trace = nil // absorbed: drop the part's records
		outs[i] = o
	})
	if err != nil {
		return nil, err
	}

	res := &Table1Result{
		Defenses: defenses,
		Timing:   make(map[string]map[string]attack.Outcome),
		CVE:      make(map[string]map[string]attack.Outcome),
	}
	cols := []string{"Attack"}
	for _, d := range defenses {
		cols = append(cols, d.Label)
	}
	tbl := &report.Table{
		Title:   "Table I: Evaluation of Defenses against Web Concurrency Attacks",
		Columns: cols,
		Notes: []string{
			report.CheckDefended + " = the defense prevents the attack; " +
				report.CheckVulnerable + " = the defense is vulnerable",
		},
	}
	addGroup := func(name string) { tbl.AddRow("-- " + name + " --") }

	addGroup("setTimeout as the implicit clock")
	for ri, a := range g.timing {
		if ri == g.firstRAF {
			addGroup("requestAnimationFrame as the implicit clock")
		}
		res.Timing[a.ID] = make(map[string]attack.Outcome, len(defenses))
		row := []string{a.Label}
		for di, d := range defenses {
			out := g.mergedOutcome(outs, ri, di)
			res.Timing[a.ID][d.ID] = out
			row = append(row, report.Mark(out.Defended))
		}
		tbl.AddRow(row...)
	}
	if g.firstRAF == len(g.timing) {
		// No rAF rows registered: still emit the group header, as the
		// serial layout always did.
		addGroup("requestAnimationFrame as the implicit clock")
	}

	addGroup("Other web concurrency attacks")
	for ci, a := range g.cves {
		res.CVE[string(a.CVE)] = make(map[string]attack.Outcome, len(defenses))
		row := []string{a.Label}
		for di, d := range defenses {
			out := outs[g.cveAt[ci][di]].Outcome
			res.CVE[string(a.CVE)][d.ID] = out
			row = append(row, report.Mark(out.Defended))
		}
		tbl.AddRow(row...)
	}
	res.Table = tbl
	return res, nil
}
