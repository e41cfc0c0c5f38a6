// Package telemetry is the service's live observability plane: an
// OpenMetrics text exposition with its own self-check parser, a
// bounded batching flusher that takes per-request telemetry work off
// the response path, a resumable server-sent-event hub for streaming
// forensics, and a cross-request forensics ledger that accumulates
// per-request signature fragments with decay to catch slow
// multi-request probe campaigns no single-request detector can see.
//
// The determinism boundary runs through this package the same way it
// runs through internal/serve: everything here lives in the wall-clock
// service world (it is on jsk-lint's detwalltime allowlist for exactly
// that reason), and nothing it computes may flow back into an
// evaluation or into /v1/eval response bytes. The one deliberate
// exception to "wall-clock world" is the Ledger, whose verdicts must
// be reproducible: it decays per observed request, never per second,
// so a fixed request sequence always yields the same campaign
// findings.
package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// Metric family types of the exposition dialect this package emits and
// parses: the OpenMetrics subset the service actually needs.
const (
	TypeCounter   = "counter"
	TypeGauge     = "gauge"
	TypeHistogram = "histogram"
)

// ContentType is the HTTP Content-Type of the exposition.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// Sample is one exposition line: an optional suffix on the family name
// (counters append _total, histogram series _bucket/_count/_sum),
// labels, and a value.
type Sample struct {
	Suffix string
	Labels []Label
	Value  float64
}

// Family is one metric family: name, type, help, and its samples in
// emission order. Writers are responsible for emitting samples in a
// deterministic order; the parser verifies structure, not order.
type Family struct {
	Name    string
	Type    string
	Help    string
	Samples []Sample
}

// Counter builds a single-sample counter family (sample name_total).
func Counter(name, help string, v uint64) Family {
	return Family{Name: name, Type: TypeCounter, Help: help,
		Samples: []Sample{{Suffix: "_total", Value: float64(v)}}}
}

// Gauge builds a single-sample gauge family.
func Gauge(name, help string, v float64) Family {
	return Family{Name: name, Type: TypeGauge, Help: help,
		Samples: []Sample{{Value: v}}}
}

// LabeledCounter builds a counter family with one sample per (label
// value, count) pair, sorted by label value for determinism.
func LabeledCounter(name, help, label string, counts map[string]uint64) Family {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	f := Family{Name: name, Type: TypeCounter, Help: help}
	for _, k := range keys {
		f.Samples = append(f.Samples, Sample{
			Suffix: "_total",
			Labels: []Label{{Name: label, Value: k}},
			Value:  float64(counts[k]),
		})
	}
	return f
}

// HistogramFamily renders a trace.Histogram (power-of-two buckets over
// virtual or wall nanoseconds) as a cumulative OpenMetrics histogram in
// seconds. Only occupied buckets get their own le edge; the +Inf bucket
// always carries the total, and _count/_sum close the family.
func HistogramFamily(name, help string, h *trace.Histogram, extraLabels ...Label) Family {
	f := Family{Name: name, Type: TypeHistogram, Help: help}
	var cum uint64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		cum += c
		// Upper edge of bucket i is 2^(i+1) ns.
		le := float64(uint64(1)<<uint(i+1)) / 1e9
		f.Samples = append(f.Samples, Sample{
			Suffix: "_bucket",
			Labels: append(append([]Label{}, extraLabels...), Label{Name: "le", Value: formatFloat(le)}),
			Value:  float64(cum),
		})
	}
	f.Samples = append(f.Samples,
		Sample{Suffix: "_bucket", Labels: append(append([]Label{}, extraLabels...), Label{Name: "le", Value: "+Inf"}), Value: float64(h.Total)},
		Sample{Suffix: "_count", Labels: append([]Label{}, extraLabels...), Value: float64(h.Total)},
		Sample{Suffix: "_sum", Labels: append([]Label{}, extraLabels...), Value: float64(h.Sum) / 1e9},
	)
	return f
}

// SecondsOf converts a virtual or wall duration in nanoseconds to the
// float seconds the exposition carries.
func SecondsOf(d sim.Duration) float64 { return float64(d) / 1e9 }

// formatFloat renders a value the shortest way that round-trips.
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// escapeLabelValue applies the exposition's label-value escaping.
func escapeLabelValue(v string) string {
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// WriteExposition renders the families as OpenMetrics text, closing
// with the mandatory "# EOF". Families render in the order given;
// within a family, samples render in the order given — builders above
// keep both deterministic.
func WriteExposition(w io.Writer, families []Family) error {
	for _, f := range families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Type); err != nil {
			return err
		}
		for _, s := range f.Samples {
			var b strings.Builder
			b.WriteString(f.Name)
			b.WriteString(s.Suffix)
			if len(s.Labels) > 0 {
				b.WriteByte('{')
				for i, l := range s.Labels {
					if i > 0 {
						b.WriteByte(',')
					}
					b.WriteString(l.Name)
					b.WriteString(`="`)
					b.WriteString(escapeLabelValue(l.Value))
					b.WriteByte('"')
				}
				b.WriteByte('}')
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
			if _, err := io.WriteString(w, b.String()); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "# EOF\n")
	return err
}
