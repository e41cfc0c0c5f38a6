package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"time"

	"jskernel/internal/defense"
	"jskernel/internal/expr"
	"jskernel/internal/report"
	"jskernel/internal/vuln"
)

// This file is the deterministic heart of the service: decodeRequest and
// resolve turn a wire request into a concrete cell, evaluate runs it.
// Nothing here may read the wall clock, the pool, or any per-worker
// identity — the response must be a pure function of (Request, resolved
// defaults), and the determinism tests compare response bytes across
// pool widths and repeated rounds to hold that line.

// cell is a resolved, validated request: exactly one Table I
// coordinate, with the repetition budget (timing rows only) and the
// completion budget resolved.
type cell struct {
	req  Request
	kind string // "timing" or "cve"
	expr.Cell
	// budget is the request's completion budget, measured from
	// admission: deadline_ms, or the server default. Always positive.
	budget time.Duration
}

// maxDeadlineMs is the largest deadline_ms whose budget fits a
// time.Duration.
const maxDeadlineMs = math.MaxInt64 / int64(time.Millisecond)

// decodeRequest parses one /v1/eval body. Unknown fields are rejected,
// so a misspelled option fails loudly instead of being ignored. So is
// anything but whitespace after the request: a body holds exactly one
// JSON value.
func decodeRequest(body []byte) (Request, *Error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return Request{}, errf(CodeBadRequest, "parsing request: %v", err)
	}
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return Request{}, errf(CodeBadRequest, "parsing request: body holds more than one JSON value")
	}
	return req, nil
}

// resolve validates the request against the catalog, the server's
// repetition bounds, the deadline range and the tenant-name cap. It
// runs at admission time, before any pool capacity is spent, so
// malformed work is rejected without queueing.
func (c *Config) resolve(req Request) (*cell, *Error) {
	cl := &cell{req: req}
	cl.Seed = req.Seed
	if req.Attack == "" {
		return nil, errf(CodeBadRequest, "missing attack")
	}
	if req.Defense == "" {
		return nil, errf(CodeBadRequest, "missing defense")
	}
	if len(req.Tenant) > maxTenantBytes {
		return nil, errf(CodeBadRequest, "tenant is %d bytes, above %d", len(req.Tenant), maxTenantBytes)
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
	switch {
	case req.DeadlineMs < 0:
		return nil, errf(CodeBadRequest, "negative deadline_ms")
	case req.DeadlineMs > maxDeadlineMs:
		return nil, errf(CodeBadRequest, "deadline_ms %d above %d", req.DeadlineMs, maxDeadlineMs)
	case req.DeadlineMs > 0:
		cl.budget = time.Duration(req.DeadlineMs) * time.Millisecond
	default:
		cl.budget = c.defaultDeadline()
	}
	return cl, nil
}

// evaluate runs one resolved cell and assembles the wire response. rt
// binds the request's cancellation hook into every environment the
// evaluation builds. plane says the telemetry plane is on: the cell then
// also runs the forensic and race instruments, whose results the caller
// hands to the plane from the returned CellResult.
//
// A canceled run never reaches response assembly: the worker checks the
// request context after evaluate returns and discards the result — a
// simulation abandoned mid-run has partial, meaningless samples, and
// returning them would be exactly the silent wrong answer this layer
// exists to prevent.
func evaluate(cl *cell, rt *defense.Runtime, plane bool) (*Response, expr.CellResult, *Error) {
	// The cell's one trace session serves every consumer of this
	// request: the response's trace summary (validated as the records
	// stream past, none retained), the forensic re-judgement, and the
	// plane's view of the run.
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
		Forensics: cl.req.Forensics || plane,
		Races:     plane,
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
			return nil, res, errf(CodeInternal, "trace failed validation: %v", res.ReportErr)
		}
		resp.Trace = &TraceSummary{Validated: true, Report: *res.Report}
	}
	if cl.req.Forensics {
		resp.Forensics = res.Verdict
	}
	tbl := &report.Table{
		Title:   "Table I cell",
		Columns: []string{"Attack", cl.Defense.Label},
	}
	tbl.AddRow(label, report.Mark(resp.Defended))
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		return nil, res, errf(CodeInternal, "render table: %v", err)
	}
	resp.Table = buf.String()
	return resp, res, nil
}
