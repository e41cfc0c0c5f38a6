package explore

import (
	"fmt"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/expr/runner"
	"jskernel/internal/hb"
	"jskernel/internal/sim"
	"jskernel/internal/vuln"
)

// Config scales an exploration matrix.
type Config struct {
	// Seed is the root seed; every cell and schedule seed derives from
	// it through sim.DeriveSeed, so the whole matrix is reproducible.
	Seed int64
	// Budget is the number of PCT schedules per cell beyond the
	// baseline default-order schedule.
	Budget int
	// Depth is PCT's bug-depth parameter d (d−1 change points).
	Depth int
	// DPORBudget bounds DPOR executions per cell for cells PCT does not
	// crack. Zero disables the DPOR phase.
	DPORBudget int
	// Parallel is the runner pool width (0 = one worker per CPU); any
	// width produces a byte-identical report.
	Parallel int
	// DefenseID selects the defense column, a Table I ID ("chrome" is
	// the undefended baseline where the paper's races are reachable).
	DefenseID string
	// CVEs restricts the rows; empty means the full Table I corpus.
	CVEs []vuln.CVE
}

// pctHorizon is the choice-point count PCT samples change points from.
const pctHorizon = 64

// Discovery is one rediscovered racing interleaving.
type Discovery struct {
	// Strategy is how the schedule was found: "default" (the baseline
	// interleaving already races), "pct", or "dpor".
	Strategy string `json:"strategy"`
	// Schedule is the PCT schedule index (0 = baseline); -1 for DPOR.
	Schedule int `json:"schedule"`
	// Token replays the discovery.
	Token string `json:"token"`
	// Finding is the witnessing race on the CVE's channel class.
	Finding hb.Finding `json:"finding"`
	// ReplayIdentical reports the verification pass: replaying Token
	// reproduced a byte-identical findings stream.
	ReplayIdentical bool `json:"replay_identical"`
}

// CellReport is one CVE row of the exploration report.
type CellReport struct {
	CVE     string `json:"cve"`
	Channel string `json:"channel"`
	// Schedules counts schedule executions spent on this cell
	// (baseline + PCT, plus DPOR when it ran).
	Schedules int `json:"schedules"`
	// Discovery is nil when the budget exhausted without a channel race.
	Discovery *Discovery `json:"discovery,omitempty"`
}

// Report is the full exploration matrix result.
type Report struct {
	Seed       int64        `json:"seed"`
	Defense    string       `json:"defense"`
	Budget     int          `json:"budget"`
	Depth      int          `json:"depth"`
	DPORBudget int          `json:"dpor_budget"`
	Cells      []CellReport `json:"cells"`
	Discovered int          `json:"discovered"`
}

// column resolves the explored Table I defense column and its index.
func column(id string) (int, defense.Defense, error) {
	defIdx, def, ok := expr.Table1Column(id)
	if !ok {
		return 0, def, fmt.Errorf("explore: unknown defense %q (want a Table I column)", id)
	}
	return defIdx, def, nil
}

// cveRow resolves an explored CVE row: its attack, its channel class,
// and its cell seed. The seed stream is explore's own, keyed by the
// CVE's position in the full corpus (not the filtered subset) so a
// -cves restriction explores exactly the schedules the full matrix
// would.
func cveRow(rootSeed int64, cve vuln.CVE, defIdx int) (*attack.CVEAttack, string, int64, error) {
	row, a, ok := expr.CVERow(cve)
	if !ok {
		return nil, "", 0, fmt.Errorf("explore: no exploit driver for %q", cve)
	}
	ch, ok := expr.CVEChannel(cve)
	if !ok {
		return nil, "", 0, fmt.Errorf("explore: no channel class for %q", cve)
	}
	nDef := len(defense.TableIDefenses())
	return a, ch, sim.DeriveSeed(rootSeed, int64(row*nDef+defIdx)), nil
}

// schedOut is one (cell, schedule) execution's distilled result.
type schedOut struct {
	found  *hb.Finding
	vector []int
}

// Matrix runs the exploration: for every selected CVE, the baseline
// schedule plus Budget PCT schedules run in parallel across the runner
// pool (unarmed registries, streaming detector, early stop at the first
// channel-class race); cells PCT leaves undiscovered get a DPOR pass.
// Every discovery is then re-executed serially from its replay token
// and the byte-identical comparison recorded. Results are collected in
// index order, so the report is identical at any Parallel width.
func Matrix(cfg Config) (*Report, error) {
	defIdx, def, err := column(cfg.DefenseID)
	if err != nil {
		return nil, err
	}
	cves := cfg.CVEs
	if len(cves) == 0 {
		cves = vuln.All()
	}
	rows := make([]*attack.CVEAttack, len(cves))
	channels := make([]string, len(cves))
	seeds := make([]int64, len(cves))
	for i, c := range cves {
		if rows[i], channels[i], seeds[i], err = cveRow(cfg.Seed, c, defIdx); err != nil {
			return nil, err
		}
	}

	// Phase 1: baseline + PCT, flattened over (cell, schedule) so the
	// pool stays saturated; schedule 0 is the default order.
	nSched := 1 + cfg.Budget
	flat := runner.Map(cfg.Parallel, len(cves)*nSched, func(i int) schedOut {
		cell, s := i/nSched, i%nSched
		base := seeds[cell]
		var inner sim.Chooser
		if s > 0 {
			inner = NewPCT(sim.DeriveSeed(base, int64(s)), cfg.Depth, pctHorizon)
		}
		res := runSchedule(runSpec{
			Attack:    rows[cell],
			Defense:   def,
			EnvSeed:   base + 1,
			Inner:     inner,
			StopClass: channels[cell],
		})
		out := schedOut{}
		if f := firstOn(res.findings, channels[cell]); f != nil {
			ff := *f
			out.found = &ff
			out.vector = res.rec.trimmed()
		}
		return out
	})

	rep := &Report{
		Seed:       cfg.Seed,
		Defense:    cfg.DefenseID,
		Budget:     cfg.Budget,
		Depth:      cfg.Depth,
		DPORBudget: cfg.DPORBudget,
	}

	// Pick each cell's lowest discovering schedule index — the same
	// winner a serial sweep would find first.
	type pending struct{ cell int }
	var undiscovered []pending
	cells := make([]CellReport, len(cves))
	for cell := range cves {
		cr := CellReport{CVE: string(cves[cell]), Channel: channels[cell], Schedules: nSched}
		for s := 0; s < nSched; s++ {
			out := flat[cell*nSched+s]
			if out.found == nil {
				continue
			}
			strategy := "pct"
			if s == 0 {
				strategy = "default"
			}
			cr.Discovery = &Discovery{
				Strategy: strategy,
				Schedule: s,
				Token: Token{
					CVE: cves[cell], Defense: cfg.DefenseID,
					RootSeed: cfg.Seed, Vector: out.vector,
				}.String(),
				Finding: *out.found,
			}
			break
		}
		if cr.Discovery == nil && cfg.DPORBudget > 0 {
			undiscovered = append(undiscovered, pending{cell: cell})
		}
		cells[cell] = cr
	}

	// Phase 2: DPOR on the cells PCT left undiscovered. Each search is
	// serial inside (the frontier is sequential by nature) but cells
	// run across the pool; no nested goroutines.
	if len(undiscovered) > 0 {
		dporOuts := runner.Map(cfg.Parallel, len(undiscovered), func(i int) dporOut {
			cell := undiscovered[i].cell
			return dporSearch(runSpec{
				Attack:  rows[cell],
				Defense: def,
				EnvSeed: seeds[cell] + 1,
			}, channels[cell], cfg.DPORBudget)
		})
		for i, out := range dporOuts {
			cell := undiscovered[i].cell
			cells[cell].Schedules += out.executions
			if out.found != nil {
				cells[cell].Discovery = &Discovery{
					Strategy: "dpor",
					Schedule: -1,
					Token: Token{
						CVE: cves[cell], Defense: cfg.DefenseID,
						RootSeed: cfg.Seed, Vector: out.vector,
					}.String(),
					Finding: *out.found,
				}
			}
		}
	}

	// Phase 3: verification. Replay every discovery's token twice —
	// once here, once against the live finding — and record whether the
	// findings stream came back byte-identical.
	for i := range cells {
		d := cells[i].Discovery
		if d == nil {
			continue
		}
		tok, err := ParseToken(d.Token)
		if err != nil {
			return nil, fmt.Errorf("explore: self-emitted token failed to parse: %v", err)
		}
		replayed, err := ReplayRun(tok)
		if err != nil {
			return nil, err
		}
		live := findingsJSON([]hb.Finding{d.Finding})
		got := "null"
		if f := firstOn(replayed, cells[i].Channel); f != nil {
			got = findingsJSON([]hb.Finding{*f})
		}
		d.ReplayIdentical = live == got
		rep.Discovered++
	}
	rep.Cells = cells
	return rep, nil
}

// ReplayRun executes a replay token and returns the standard-window
// findings of the reproduced schedule, truncated at the same early-stop
// point as the live run.
func ReplayRun(t Token) ([]hb.Finding, error) {
	defIdx, def, err := column(t.Defense)
	if err != nil {
		return nil, err
	}
	a, ch, base, err := cveRow(t.RootSeed, t.CVE, defIdx)
	if err != nil {
		return nil, err
	}
	res := runSchedule(runSpec{
		Attack:    a,
		Defense:   def,
		EnvSeed:   base + 1,
		Inner:     NewReplay(t.Vector),
		StopClass: ch,
	})
	return res.findings, nil
}
