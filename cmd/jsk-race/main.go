// Command jsk-race surfaces the happens-before race analysis
// (internal/hb) over the kernel event stream of one Table I cell. The
// whole CVE half — every cell's race verdict checked against the
// experiment's own verdict — is `jsk-eval -race`; jsk-race's cells use
// the same seeds as that matrix at -reps 3, so they reproduce its
// findings exactly.
//
// Cell mode runs one CVE row against one or every defense column,
// prints every finding with its vector-clock evidence, and can export
// the raw record stream:
//
//	jsk-race -cve CVE-2018-5092 -defense chrome
//	jsk-race -cve CVE-2018-5092 -defense chrome -export trace.jsonl
//
// Replay mode re-runs the detector offline over an exported stream —
// the same records, the same findings, no simulation:
//
//	jsk-race -replay trace.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"jskernel/internal/expr"
	"jskernel/internal/hb"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsk-race:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("jsk-race", flag.ContinueOnError)
	var (
		cve    = fs.String("cve", "", "run one CVE row (e.g. CVE-2018-5092)")
		def    = fs.String("defense", "", "with -cve, run one defense column (default: all)")
		seed   = fs.Int64("seed", 0, "override the experiment seed")
		asJSON = fs.Bool("json", false, "emit results as JSON")
		export = fs.String("export", "", "with -cve and -defense, export the cell's raw record stream to this file (JSONL, replayable)")
		replay = fs.String("replay", "", "replay an exported record stream through the detector instead of simulating")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *replay != "" {
		return replayFile(w, *replay, *asJSON)
	}
	if *cve == "" {
		return fmt.Errorf("pass -cve to run a cell or -replay to re-judge an exported stream (the full race matrix is jsk-eval -race)")
	}
	cfg := expr.QuickConfig()
	cfg.Reps = 3
	if *seed != 0 {
		cfg.Seed = *seed
	}
	return runRow(w, cfg, vuln.CVE(*cve), *def, *export, *asJSON)
}

// cellResult is one cell's output in cell mode.
type cellResult struct {
	Row       string       `json:"row"`
	Defense   string       `json:"defense"`
	Defended  bool         `json:"defended"`
	Exploited bool         `json:"exploited"`
	Channel   string       `json:"channel"`
	Findings  []hb.Finding `json:"findings"`
}

// runRow runs one CVE row against one or all defenses.
func runRow(w io.Writer, cfg expr.Config, cve vuln.CVE, defID, export string, asJSON bool) error {
	cells, ok := expr.Table1CVECells(cfg, cve)
	if !ok {
		return fmt.Errorf("unknown CVE %q", cve)
	}
	if defID != "" {
		var picked []expr.Cell
		for _, c := range cells {
			if c.Defense.ID == defID {
				picked = append(picked, c)
			}
		}
		if len(picked) == 0 {
			return fmt.Errorf("unknown defense %q", defID)
		}
		cells = picked
	}
	if export != "" && len(cells) != 1 {
		return fmt.Errorf("-export needs a single cell: pass -defense")
	}

	channel, _ := expr.CVEChannel(cve)
	var results []cellResult
	for _, c := range cells {
		res := expr.RunCell(c, expr.Instruments{Records: export != "", Races: true})
		results = append(results, cellResult{
			Row: string(cve), Defense: c.Defense.ID,
			Defended: res.Outcome.Defended, Exploited: res.Outcome.Exploited,
			Channel: channel, Findings: res.Races,
		})
		if export != "" {
			if err := exportRecords(res.Trace.Records(), export); err != nil {
				return err
			}
			fmt.Fprintf(w, "exported record stream -> %s\n", export)
		}
	}
	if asJSON {
		return writeJSON(w, results)
	}
	for _, r := range results {
		fmt.Fprintf(w, "%s under %s: defended=%v races(%s)=%d total=%d\n",
			r.Row, r.Defense, r.Defended, r.Channel, countClass(r.Findings, r.Channel), len(r.Findings))
		printFindings(w, r.Findings)
	}
	return nil
}

// replayFile re-runs the detector over an exported record stream.
func replayFile(w io.Writer, path string, asJSON bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	recs, err := trace.ReadRecords(f)
	if err != nil {
		return err
	}
	findings := hb.Replay(recs)
	if asJSON {
		return writeJSON(w, findings)
	}
	fmt.Fprintf(w, "replayed %d records: %d races\n", len(recs), len(findings))
	printFindings(w, findings)
	return nil
}

// exportRecords writes a cell's retained records as JSONL.
func exportRecords(recs []trace.Record, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	rw := trace.NewRecordWriter(f)
	rw.WriteAll(recs)
	if err := rw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printFindings(w io.Writer, findings []hb.Finding) {
	for _, f := range findings {
		fmt.Fprintf(w, "  race run=%d %s/%d guardian=%v\n", f.Run, f.Class, f.Target, f.Guardian)
		fmt.Fprintf(w, "    first:  %s %s #%d vt=%v clock=%d\n",
			f.First.Context, f.First.Action, f.First.Seq, f.First.VT, f.First.Clock)
		fmt.Fprintf(w, "    second: %s %s #%d vt=%v clock=%d vc=%s\n",
			f.Second.Context, f.Second.Action, f.Second.Seq, f.Second.VT, f.Second.Clock, f.Second.VC)
	}
}

func countClass(findings []hb.Finding, class string) int {
	n := 0
	for _, f := range findings {
		if f.Class == class {
			n++
		}
	}
	return n
}

func writeJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
