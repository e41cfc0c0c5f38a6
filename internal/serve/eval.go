package serve

import (
	"bytes"
	"strings"

	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/hb"
	"jskernel/internal/report"
	"jskernel/internal/telemetry"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// This file is the deterministic heart of the service: resolve turns a
// wire request into a concrete cell, evaluate runs it. Nothing here may
// read the wall clock, the pool, or any per-worker identity — the
// response must be a pure function of (Request, resolved defaults), and
// the determinism tests compare response bytes across pool widths and
// environment-reuse depths to hold that line.

// cell is a resolved, validated request: exactly one Table I
// coordinate, with the repetition budget resolved (timing rows only).
type cell struct {
	req  Request
	kind string // "timing" or "cve"
	expr.Cell
}

// resolve validates the request against the catalog and the server's
// repetition bounds. It runs at admission time, before any pool
// capacity is spent, so malformed work is rejected without queueing.
func (c *Config) resolve(req Request) (*cell, *Error) {
	cl := &cell{req: req}
	cl.Seed = req.Seed
	if req.Attack == "" {
		return nil, errf(CodeBadRequest, "missing attack")
	}
	if req.Defense == "" {
		return nil, errf(CodeBadRequest, "missing defense")
	}
	d, err := defense.ByID(req.Defense)
	if err != nil {
		return nil, errf(CodeUnknownDefense, "unknown defense %q", req.Defense)
	}
	cl.Defense = d
	if strings.HasPrefix(req.Attack, "CVE-") {
		cl.kind = "cve"
		_, cl.CVE, _ = expr.CVERow(vuln.CVE(req.Attack))
		if cl.CVE == nil {
			return nil, errf(CodeUnknownAttack, "unknown CVE row %q", req.Attack)
		}
	} else {
		cl.kind = "timing"
		cl.Timing, _ = expr.TimingRow(req.Attack)
		if cl.Timing == nil {
			return nil, errf(CodeUnknownAttack, "unknown timing row %q", req.Attack)
		}
		cl.Reps = req.Reps
		if cl.Reps == 0 {
			cl.Reps = c.defaultReps()
		}
		if cl.Reps < 0 || cl.Reps > c.maxReps() {
			return nil, errf(CodeBadRequest, "reps %d outside [1, %d]", cl.Reps, c.maxReps())
		}
	}
	if req.DeadlineMs < 0 {
		return nil, errf(CodeBadRequest, "negative deadline_ms")
	}
	return cl, nil
}

// evalCapture is the telemetry plane's view of one evaluation: pure
// data assembled on the worker after the run, consumed by the plane
// after the response is already decided. Everything here is derived
// from the deterministic event stream — no wall clock, and nothing in
// it feeds back into the Response, which is what keeps response bytes
// byte-identical with the plane on or off.
type evalCapture struct {
	// metrics is the run's kernel metrics registry.
	metrics *trace.Metrics
	// link joins the request's wall-clock span to its virtual-time trace.
	link telemetry.SpanLink
	// forensics is the streaming per-request verdict (always assembled
	// when the plane is on, independent of Request.Forensics), published
	// on /v1/events.
	forensics *ForensicsSummary
	// fragments are the raw, below-threshold detector tallies plus
	// happens-before race counts that feed the cross-request ledger.
	fragments []telemetry.ClassFragment
	// races are the happens-before findings for the events stream.
	races []hb.Finding
}

// evaluate runs one resolved cell and assembles the wire response. rt
// binds the worker's pooled environment and the request's cancellation
// hook into every environment the evaluation builds; cap, when
// non-nil, additionally captures the plane's view of the run: kernel
// metrics, streaming forensics, ledger fragments and races.
//
// A canceled run never reaches response assembly: the worker checks the
// request context after evaluate returns and discards the result — a
// simulation abandoned mid-run has partial, meaningless samples, and
// returning them would be exactly the silent wrong answer this layer
// exists to prevent.
func evaluate(cl *cell, rt *defense.Runtime, cap *evalCapture) (*Response, *Error) {
	// The cell's one trace session serves every consumer of this
	// request: the response's trace summary (validated as the records
	// stream past, none retained), the forensic re-judgement, and the
	// plane's capture.
	// Tracing and obs events never perturb execution, so attaching any
	// subset leaves the response bytes unchanged. The plane forces
	// forensics on; a trace summary then leaves out the obs-only records
	// unless the request asked for forensics itself, so it reads exactly
	// as it would with the plane off.
	c := cl.Cell
	c.Defense = c.Defense.WithRuntime(rt)
	res := expr.RunCell(c, expr.Instruments{
		Validate:  cl.req.Trace,
		Obs:       cl.req.Forensics,
		Forensics: cl.req.Forensics || cap != nil,
		Races:     cap != nil,
	})

	resp := &Response{
		Attack:   cl.req.Attack,
		Defense:  cl.req.Defense,
		Kind:     cl.kind,
		Seed:     cl.req.Seed,
		Reps:     cl.Reps,
		Defended: res.Outcome.Defended,
	}
	var label string
	if cl.kind == "timing" {
		label = cl.Timing.Label
		for _, ch := range res.Outcome.Channels {
			resp.Channels = append(resp.Channels, Channel{
				Channel: ch.Channel, MeanA: ch.MeanA, MeanB: ch.MeanB,
				CohensD: ch.CohensD, Leaks: ch.Leaks,
			})
		}
	} else {
		label = cl.CVE.Label
		resp.Exploited = res.Outcome.Exploited
	}
	if cl.req.Trace {
		if res.ReportErr != nil {
			return nil, errf(CodeInternal, "trace failed validation: %v", res.ReportErr)
		}
		resp.Trace = &TraceSummary{Validated: true, Report: *res.Report}
	}
	if cl.req.Forensics {
		resp.Forensics = res.Verdict
	}
	if cap != nil {
		cap.metrics = res.Trace.Metrics()
		cap.link = telemetry.SpanLink{
			Runs:    res.Trace.Runs(),
			LastSeq: res.Trace.LastSeq(),
			VTMaxMs: res.Trace.MaxVT().Milliseconds(),
		}
		// The streaming verdict is the per-response judgement itself, so
		// the /v1/events stream agrees with body forensics by construction.
		cap.forensics = res.Verdict
		cap.races = res.Races
		cap.fragments = captureFragments(res.Fragments, res.Races)
	}

	tbl := &report.Table{
		Title:   "Table I cell",
		Columns: []string{"Attack", cl.Defense.Label},
	}
	tbl.AddRow(label, report.Mark(resp.Defended))
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		return nil, errf(CodeInternal, "render table: %v", err)
	}
	resp.Table = buf.String()
	return resp, nil
}
