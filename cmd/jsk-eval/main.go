// Command jsk-eval regenerates the paper's evaluation artifacts: Tables
// I–III, Figures 2–3, and the Dromaeo / worker / compatibility numbers.
// It also runs one cell of Table I and prints its detailed verdict.
//
// Usage:
//
//	jsk-eval -all                 # everything at quick scale
//	jsk-eval -all -paper          # everything at paper scale (slow)
//	jsk-eval -table 1             # one artifact
//	jsk-eval -fig 3 -csv          # figure data as CSV-ish rows
//	jsk-eval -all -parallel 8     # same bytes, 8 experiment workers
//	jsk-eval -cell svg-filtering/tor -seed 1 -reps 25
//	jsk-eval -cell CVE-2018-5092/jskernel-chrome
//
// Observability (all outputs byte-identical across reruns and widths):
//
//	jsk-eval -table 1 -profile out.folded   # virtual-time flamegraph
//	jsk-eval -table 1 -obs-report out/      # profiler + forensics + metrics
//	jsk-eval -table 1 -metrics out.json     # kernel metrics registry
//	jsk-eval -forensics out.json            # forensic re-judgement of Table I
//	jsk-eval -race                          # happens-before race re-judgement of Table I's CVE half
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/obs"
	"jskernel/internal/report"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "jsk-eval:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("jsk-eval", flag.ContinueOnError)
	var (
		table     = fs.Int("table", 0, "regenerate Table 1, 2 or 3")
		fig       = fs.Int("fig", 0, "regenerate Figure 2 or 3")
		dromaeo   = fs.Bool("dromaeo", false, "run the Dromaeo overhead experiment")
		workers   = fs.Bool("workers", false, "run the 16-worker creation benchmark")
		compat    = fs.Bool("compat", false, "run the Alexa DOM-similarity compatibility test")
		apps      = fs.Bool("apps", false, "run the CodePen API-specific compatibility test")
		ablation  = fs.Bool("ablation", false, "run the quantum and policy ablation studies")
		recovery  = fs.Bool("recovery", false, "run the end-to-end secret recovery experiment")
		chaos     = fs.Bool("chaos", false, "re-run the Table I matrix under seeded fault plans and diff every verdict")
		cell      = fs.String("cell", "", "run one Table I cell, ROW/DEFENSE (e.g. svg-filtering/tor), and print its per-channel or registry verdict")
		all       = fs.Bool("all", false, "run every experiment")
		paper     = fs.Bool("paper", false, "paper-scale parameters (slow); default is quick scale")
		seed      = fs.Int64("seed", 0, "override the experiment seed")
		reps      = fs.Int("reps", 0, "override the repetition budget")
		parallel  = fs.Int("parallel", 0, "worker-pool width for cell-parallel experiments: 0 = one per CPU, 1 = serial; output is byte-identical at any width")
		csv       = fs.Bool("csv", false, "emit tables as CSV")
		markdown  = fs.Bool("markdown", false, "emit tables as GitHub-flavored markdown")
		traceOut  = fs.String("trace", "", "record a kernel lifecycle trace of the run to this file (Chrome trace-event JSON, Perfetto-loadable)")
		traceText = fs.Bool("trace-text", false, "with -trace, also write the compact text rendering next to the JSON (<out>.txt)")
		profOut   = fs.String("profile", "", "write a collapsed-stack virtual-time flamegraph of the run to this file and print the profile tree")
		obsDir    = fs.String("obs-report", "", "write the streaming telemetry report (report.json + summary.txt) to this directory")
		metrOut   = fs.String("metrics", "", "write the kernel metrics registry of the run to this file as JSON")
		forOut    = fs.String("forensics", "", "re-judge the Table I matrix from the event stream alone and write the forensic findings to this file as JSON")
		race      = fs.Bool("race", false, "re-judge Table I's CVE half with the happens-before race detector and fail on any disagreement")
		raceOut   = fs.String("race-out", "", "with -race, write the full race matrix (findings, vector clocks) to this file as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := expr.QuickConfig()
	if *paper {
		cfg = expr.PaperConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *reps > 0 {
		cfg.Reps = *reps
	}
	cfg.Parallel = *parallel

	// The observability outputs read the run's trace session, and only
	// -cell, -table 1/2/3, -dromaeo and -chaos (whose plans rerun the
	// Table I matrix) feed it, alone or through -all. Without one of them
	// each output would describe an empty run, so the combination is
	// refused.
	var unfed []string
	for _, o := range []struct{ flag, out string }{{"-trace", *traceOut}, {"-profile", *profOut}, {"-obs-report", *obsDir}, {"-metrics", *metrOut}} {
		if o.out != "" {
			unfed = append(unfed, o.flag)
		}
	}
	fed := *cell != "" || (*table >= 1 && *table <= 3) || *dromaeo || *chaos || *all
	if len(unfed) > 0 && !fed {
		return fmt.Errorf("%s: no selected experiment feeds the trace session; add -cell, -table 1|2|3, -dromaeo, -chaos or -all", strings.Join(unfed, ", "))
	}

	// Any observability output needs a trace session on the experiments.
	// The session only retains records when the full trace is being
	// exported; the streaming consumers (profiler, detectors, validator,
	// metrics) attach as sinks and never need the buffer.
	if *traceOut != "" || *profOut != "" || *obsDir != "" || *metrOut != "" {
		cfg.Trace = trace.NewSession()
		if *traceOut == "" {
			cfg.Trace.SetRetain(false)
		}
	}
	var prof *obs.Profiler
	var det *obs.Detectors
	var sv *trace.StreamValidator
	if *profOut != "" || *obsDir != "" {
		cfg.Obs = true
		prof = obs.NewProfiler()
		cfg.Trace.Attach(prof)
	}
	if *obsDir != "" {
		det = obs.NewDetectors(obs.DefaultDetectorConfig())
		sv = trace.NewStreamValidator(false)
		cfg.Trace.Attach(det)
		cfg.Trace.Attach(sv)
	}
	if cfg.Trace != nil {
		defer func() {
			cfg.Trace.Close()
			if *traceOut != "" {
				if err := writeTrace(w, cfg.Trace, *traceOut, *traceText); err != nil {
					fmt.Fprintln(os.Stderr, "jsk-eval: trace:", err)
				}
			}
			if *profOut != "" {
				if err := writeProfile(w, prof, *profOut); err != nil {
					fmt.Fprintln(os.Stderr, "jsk-eval: profile:", err)
				}
			}
			if *metrOut != "" {
				if err := writeMetrics(w, cfg.Trace, *metrOut); err != nil {
					fmt.Fprintln(os.Stderr, "jsk-eval: metrics:", err)
				}
			}
			if *obsDir != "" {
				if err := writeObsReport(w, cfg.Trace, prof, det, sv, *obsDir); err != nil {
					fmt.Fprintln(os.Stderr, "jsk-eval: obs-report:", err)
				}
			}
		}()
	}

	emit := func(t *report.Table) error {
		switch {
		case *csv:
			return t.CSV(w)
		case *markdown:
			if err := t.Markdown(w); err != nil {
				return err
			}
		default:
			if err := t.Render(w); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(w)
		return err
	}

	any := false
	if *cell != "" {
		any = true
		if err := runCell(w, cfg, *cell); err != nil {
			return fmt.Errorf("cell: %w", err)
		}
	}
	if *all || *table == 1 {
		any = true
		res, err := expr.Table1(cfg)
		if err != nil {
			return fmt.Errorf("table 1: %w", err)
		}
		if err := emit(res.Table); err != nil {
			return err
		}
	}
	if *all || *table == 2 {
		any = true
		res, err := expr.Table2(cfg)
		if err != nil {
			return fmt.Errorf("table 2: %w", err)
		}
		if err := emit(res.Table); err != nil {
			return err
		}
	}
	if *all || *table == 3 {
		any = true
		res, err := expr.Table3(cfg)
		if err != nil {
			return fmt.Errorf("table 3: %w", err)
		}
		if err := emit(res.Table); err != nil {
			return err
		}
	}
	if *all || *fig == 2 {
		any = true
		res, err := expr.Fig2(cfg)
		if err != nil {
			return fmt.Errorf("figure 2: %w", err)
		}
		if err := res.Figure.Render(w); err != nil {
			return err
		}
		ids := make([]string, 0, len(res.SlopeMsPerMB))
		for id := range res.SlopeMsPerMB {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "slope %-18s %8.2f ms/MB   %s\n",
				id, res.SlopeMsPerMB[id], report.Sparkline(res.ReportedMs[id]))
		}
		fmt.Fprintln(w)
	}
	if *all || *fig == 3 {
		any = true
		res, err := expr.Fig3(cfg)
		if err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
		if err := res.Figure.Render(w); err != nil {
			return err
		}
		ids := make([]string, 0, len(res.Median))
		for id := range res.Median {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			fmt.Fprintf(w, "median %-18s %10.1f ms\n", id, res.Median[id])
		}
		fmt.Fprintln(w)
	}
	if *all || *dromaeo {
		any = true
		rep, err := expr.Dromaeo(cfg)
		if err != nil {
			return fmt.Errorf("dromaeo: %w", err)
		}
		if err := emit(rep.Table); err != nil {
			return err
		}
	}
	if *all || *workers {
		any = true
		rep, err := expr.WorkerBench(cfg)
		if err != nil {
			return fmt.Errorf("workers: %w", err)
		}
		if err := emit(rep.Table); err != nil {
			return err
		}
	}
	if *all || *compat {
		any = true
		rep, err := expr.Compat(cfg)
		if err != nil {
			return fmt.Errorf("compat: %w", err)
		}
		if err := emit(rep.Table); err != nil {
			return err
		}
	}
	if *all || *apps {
		any = true
		rep, err := expr.Apps(cfg)
		if err != nil {
			return fmt.Errorf("apps: %w", err)
		}
		if err := emit(rep.Table); err != nil {
			return err
		}
	}
	if *all || *ablation {
		any = true
		_, qtbl, err := expr.QuantumAblation(cfg)
		if err != nil {
			return fmt.Errorf("quantum ablation: %w", err)
		}
		if err := emit(qtbl); err != nil {
			return err
		}
		_, ptbl, err := expr.PolicyAblation(cfg)
		if err != nil {
			return fmt.Errorf("policy ablation: %w", err)
		}
		if err := emit(ptbl); err != nil {
			return err
		}
	}
	if *all || *recovery {
		any = true
		rep, err := expr.Recovery(cfg)
		if err != nil {
			return fmt.Errorf("recovery: %w", err)
		}
		if err := emit(rep.Table); err != nil {
			return err
		}
	}
	if *chaos {
		any = true
		res, err := expr.Chaos(cfg)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		if err := emit(res.Table); err != nil {
			return err
		}
		for _, pr := range res.Plans {
			for _, f := range pr.Weakened {
				fmt.Fprintf(w, "WEAKENED under %s: %s\n", pr.Plan.Name, f)
			}
			for _, f := range pr.Masked {
				fmt.Fprintf(w, "masked under %s: %s\n", pr.Plan.Name, f)
			}
		}
		if n := res.Weakened(); n > 0 {
			return fmt.Errorf("chaos: %d security verdicts weakened under fault injection", n)
		}
		fmt.Fprintf(w, "chaos: %d plans, every security verdict unchanged\n", len(res.Plans))
	}
	if *forOut != "" {
		any = true
		res, err := expr.ForensicsTable1(cfg)
		if err != nil {
			return fmt.Errorf("forensics: %w", err)
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return fmt.Errorf("forensics: %w", err)
		}
		if err := os.WriteFile(*forOut, append(b, '\n'), 0o644); err != nil {
			return fmt.Errorf("forensics: %w", err)
		}
		fmt.Fprintf(w, "forensics: %d cells, %d flagged -> %s\n",
			len(res.Cells), len(res.Findings()), *forOut)
		if n := len(res.Mismatches); n > 0 {
			for _, m := range res.Mismatches {
				fmt.Fprintf(w, "forensic mismatch: %s\n", m)
			}
			return fmt.Errorf("forensics: %d cells disagree with the experiment verdicts", n)
		}
	}
	if *race {
		any = true
		res, err := expr.RaceTable1(cfg)
		if err != nil {
			return fmt.Errorf("race: %w", err)
		}
		if *raceOut != "" {
			b, err := json.MarshalIndent(res, "", "  ")
			if err != nil {
				return fmt.Errorf("race: %w", err)
			}
			if err := os.WriteFile(*raceOut, append(b, '\n'), 0o644); err != nil {
				return fmt.Errorf("race: %w", err)
			}
			fmt.Fprintf(w, "race matrix -> %s\n", *raceOut)
		}
		fmt.Fprintf(w, "race: %d cells, %d flagged\n", len(res.Cells), len(res.Findings()))
		for _, c := range res.Cells {
			fmt.Fprintf(w, "  %-14s %-16s defended=%-5v races(%s)=%d total=%d\n",
				c.Row, c.Defense, c.ActualDefended, c.Channel, c.ChannelRaces, c.TotalRaces)
		}
		if n := len(res.Mismatches); n > 0 {
			for _, m := range res.Mismatches {
				fmt.Fprintf(w, "race mismatch: %s\n", m)
			}
			return fmt.Errorf("race: %d cells disagree with the experiment verdicts", n)
		}
	}
	if !any {
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -all, -table N, -fig N, -chaos, -cell ROW/DEFENSE, or an experiment flag")
	}
	return nil
}

// runCell evaluates the Table I cell ROW/DEFENSE at cfg's seed and
// repetition budget, tracing it into cfg.Trace when that is set, and
// prints its verdict: per-channel statistics for a timing row, the
// registry's state for a CVE row.
func runCell(w io.Writer, cfg expr.Config, spec string) error {
	rowID, defenseID, _ := strings.Cut(spec, "/")
	c := expr.Cell{Reps: cfg.Reps, Seed: cfg.Seed}
	c.Timing, _ = expr.TimingRow(rowID)
	if c.Timing == nil {
		_, c.CVE, _ = expr.CVERow(vuln.CVE(rowID))
	}
	if c.Timing == nil && c.CVE == nil {
		var ids []string
		for _, a := range attack.TimingAttacks() {
			ids = append(ids, a.ID)
		}
		for _, a := range attack.CVEAttacks() {
			ids = append(ids, string(a.CVE))
		}
		return fmt.Errorf("unknown row %q (valid: %s)", rowID, strings.Join(ids, ", "))
	}
	d, err := defense.ByID(defenseID)
	if err != nil {
		return err
	}
	c.Defense = d
	traced := cfg.Trace != nil
	res := expr.RunCell(c, expr.Instruments{Records: traced, Obs: traced && cfg.Obs})
	if traced {
		if err := cfg.Trace.Absorb(res.Trace); err != nil {
			return err
		}
	}
	out := res.Outcome
	if c.Timing != nil {
		fmt.Fprintf(w, "%s vs %s: %s\n", c.Timing.Label, d.Label, verdict(out.Defended))
		for _, ch := range out.Channels {
			fmt.Fprintf(w, "  channel %-14s meanA=%.3f meanB=%.3f cohens-d=%.2f leaks=%v\n",
				ch.Channel, ch.MeanA, ch.MeanB, ch.CohensD, ch.Leaks)
		}
		return nil
	}
	fmt.Fprintf(w, "%s vs %s: %s (exploited=%v)\n", c.CVE.CVE, d.Label, verdict(out.Defended), out.Exploited)
	if out.Err != nil {
		fmt.Fprintf(w, "  driver note: %v\n", out.Err)
	}
	return nil
}

func verdict(defended bool) string {
	if defended {
		return report.CheckDefended + " defended"
	}
	return report.CheckVulnerable + " vulnerable"
}

// writeProfile writes the collapsed-stack flamegraph and prints the
// profile tree.
func writeProfile(w io.Writer, p *obs.Profiler, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := p.WriteFolded(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "profile: flamegraph -> %s\n", out)
	return p.WriteTree(w)
}

// writeMetrics dumps the session's metrics registry as JSON.
func writeMetrics(w io.Writer, s *trace.Session, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := s.Metrics().WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "metrics: registry -> %s\n", out)
	return nil
}

// writeObsReport joins profiler, detectors, metrics and validation into
// the telemetry report directory (report.json + summary.txt).
func writeObsReport(w io.Writer, s *trace.Session, prof *obs.Profiler, det *obs.Detectors, sv *trace.StreamValidator, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	rep, verr := sv.Finish()
	in := obs.ReportInput{
		Title:         "jsk-eval",
		Profiler:      prof,
		Signatures:    det.Finish(),
		Metrics:       s.Metrics(),
		Validation:    rep,
		ValidationErr: verr,
	}
	jf, err := os.Create(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	if err := obs.WriteReportJSON(jf, in); err != nil {
		jf.Close()
		return err
	}
	if err := jf.Close(); err != nil {
		return err
	}
	sf, err := os.Create(filepath.Join(dir, "summary.txt"))
	if err != nil {
		return err
	}
	if err := obs.WriteReportSummary(sf, in); err != nil {
		sf.Close()
		return err
	}
	if err := sf.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "obs-report: report.json + summary.txt -> %s\n", dir)
	return obs.WriteReportSummary(w, in)
}

// writeTrace closes the session, validates it against the kernel
// lifecycle invariants, writes the Chrome trace-event JSON (plus the
// compact text rendering when asked), and prints the metrics summary.
func writeTrace(w io.Writer, s *trace.Session, out string, alsoText bool) error {
	s.Close()
	recs := s.Records()
	rep, err := trace.Validate(recs)
	if err != nil {
		return err
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := trace.WriteChrome(f, recs); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if alsoText {
		tf, err := os.Create(out + ".txt")
		if err != nil {
			return err
		}
		if err := trace.WriteText(tf, recs); err != nil {
			tf.Close()
			return err
		}
		if err := tf.Close(); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "trace: %d records -> %s (validated: %d enqueued = %d dispatched + %d shed + %d cancelled + %d expired)\n",
		len(recs), out, rep.Enqueued, rep.Dispatched, rep.Shed, rep.Cancelled, rep.Expired)
	return s.Metrics().WriteSummary(w)
}
