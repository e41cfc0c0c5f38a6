package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"jskernel/internal/trace"
)

// The telemetry report joins the session's streaming consumers — the
// virtual-time profiler, the forensics detectors, the metrics registry
// and the lifecycle validator — into one machine-readable JSON document
// and one compact text summary. Both renderings are pure functions of
// the consumers' accumulated state, so they inherit the stream's
// determinism: byte-identical across reruns and parallel widths.

// ReportInput bundles the consumers a report is rendered from. Any
// field may be nil/empty; the report includes what it is given.
type ReportInput struct {
	// Title labels the report ("dromaeo", "table1", ...).
	Title string
	// Profiler supplies the per-run headers and dispatch-wait profile.
	Profiler *Profiler
	// Signatures are the detectors' findings (pass Detectors.Finish()).
	Signatures []Signature
	// Metrics is the session's metrics registry.
	Metrics *trace.Metrics
	// Validation carries the lifecycle validator's report and error.
	Validation    *trace.Report
	ValidationErr error
}

// reportJSON is the document schema.
type reportJSON struct {
	Title           string          `json:"title,omitempty"`
	Runs            []RunProfile    `json:"runs"`
	Profile         []ProfileNode   `json:"profile"`
	Signatures      []Signature     `json:"signatures"`
	Metrics         json.RawMessage `json:"metrics,omitempty"`
	Validation      *trace.Report   `json:"validation,omitempty"`
	ValidationError string          `json:"validation_error,omitempty"`
}

// WriteReportJSON renders the report as indented JSON.
func WriteReportJSON(w io.Writer, in ReportInput) error {
	doc := reportJSON{
		Title:      in.Title,
		Runs:       []RunProfile{},
		Profile:    []ProfileNode{},
		Signatures: in.Signatures,
		Validation: in.Validation,
	}
	if doc.Signatures == nil {
		doc.Signatures = []Signature{}
	}
	if in.Profiler != nil {
		doc.Runs = in.Profiler.RunProfiles()
		doc.Profile = in.Profiler.Nodes()
	}
	if in.Metrics != nil {
		var buf bytes.Buffer
		if err := in.Metrics.WriteJSON(&buf); err != nil {
			return err
		}
		doc.Metrics = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
	}
	if in.ValidationErr != nil {
		doc.ValidationError = in.ValidationErr.Error()
	}
	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteReportSummary renders the compact text summary.
func WriteReportSummary(w io.Writer, in ReportInput) error {
	title := in.Title
	if title == "" {
		title = "session"
	}
	if _, err := fmt.Fprintf(w, "obs report: %s\n", title); err != nil {
		return err
	}
	if in.Profiler != nil {
		runs := in.Profiler.RunProfiles()
		var dispatches int64
		var kernelRuns int
		for _, rp := range runs {
			dispatches += rp.Dispatches
			if rp.Policy != "" {
				kernelRuns++
			}
		}
		if _, err := fmt.Fprintf(w, "runs: %d (%d kernelized), %d dispatches profiled\n",
			len(runs), kernelRuns, dispatches); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "signatures: %d\n", len(in.Signatures)); err != nil {
		return err
	}
	for _, s := range in.Signatures {
		if _, err := fmt.Fprintf(w, "  %s run=%d %s=%d count=%d evidence=%v\n",
			s.Detector, s.Run, s.Subject, s.SubjectID, s.Count, s.Evidence); err != nil {
			return err
		}
	}
	if in.Profiler != nil {
		nodes := in.Profiler.Nodes()
		// Top dispatch-wait attributions, heaviest first; ties keep the
		// canonical node order so the summary stays deterministic.
		top := make([]ProfileNode, len(nodes))
		copy(top, nodes)
		for i := 1; i < len(top); i++ {
			for j := i; j > 0 && top[j].WaitTotal > top[j-1].WaitTotal; j-- {
				top[j], top[j-1] = top[j-1], top[j]
			}
		}
		if len(top) > 5 {
			top = top[:5]
		}
		if len(top) > 0 {
			if _, err := fmt.Fprintf(w, "top dispatch-wait:\n"); err != nil {
				return err
			}
			for _, n := range top {
				if _, err := fmt.Fprintf(w, "  run%d scope%d %s/%s: %d dispatches, %.3fms wait\n",
					n.Run, n.Scope, n.API, n.Rule, n.Count, n.WaitTotal.Milliseconds()); err != nil {
					return err
				}
			}
		}
	}
	switch {
	case in.ValidationErr != nil:
		if _, err := fmt.Fprintf(w, "validation: FAILED: %v\n", in.ValidationErr); err != nil {
			return err
		}
	case in.Validation != nil:
		if _, err := fmt.Fprintf(w, "validation: ok (%d records, %d dispatched, %d open)\n",
			in.Validation.Records, in.Validation.Dispatched, in.Validation.Open); err != nil {
			return err
		}
	}
	return nil
}
