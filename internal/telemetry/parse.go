package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParseExposition parses and validates OpenMetrics text produced by
// WriteExposition (or any conforming writer of the same subset). It is
// the self-check half of the exposition contract: /metricsz is tested
// against this parser in the serve tests and in the chaos runs, so a
// format regression fails loudly instead of silently breaking
// scrapers.
//
// Structural rules enforced:
//
//   - every sample belongs to a family declared by a preceding # TYPE
//     line with a known type; # TYPE appears at most once per family;
//   - counter samples are named <family>_total, gauges <family>,
//     histogram series <family>_bucket/_count/_sum;
//   - histogram buckets (per label set, ignoring le) carry strictly
//     increasing le edges, non-decreasing cumulative counts, a closing
//     le="+Inf" bucket, and a _count equal to the +Inf bucket;
//   - no duplicate (sample name, label set) lines;
//   - the exposition ends with "# EOF" and nothing after it.
func ParseExposition(text string) ([]Family, error) {
	p := &expoParser{
		families: map[string]*Family{},
		seen:     map[string]bool{},
	}
	lines := strings.Split(text, "\n")
	sawEOF := false
	for i, line := range lines {
		lineNo := i + 1
		if sawEOF {
			if strings.TrimSpace(line) != "" {
				return nil, fmt.Errorf("line %d: content after # EOF", lineNo)
			}
			continue
		}
		if line == "" {
			if i == len(lines)-1 {
				continue
			}
			return nil, fmt.Errorf("line %d: blank line inside exposition", lineNo)
		}
		if line == "# EOF" {
			sawEOF = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := p.meta(line, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		if err := p.sample(line, lineNo); err != nil {
			return nil, err
		}
	}
	if !sawEOF {
		return nil, fmt.Errorf("exposition does not end with # EOF")
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	return p.ordered, nil
}

type expoParser struct {
	families map[string]*Family
	ordered  []Family
	order    []string
	seen     map[string]bool // duplicate (name, labelset) guard
}

var validName = func(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// meta handles # HELP and # TYPE lines.
func (p *expoParser) meta(line string, lineNo int) error {
	parts := strings.SplitN(line, " ", 4)
	if len(parts) < 3 || parts[0] != "#" {
		return fmt.Errorf("line %d: malformed comment line %q", lineNo, line)
	}
	keyword, name := parts[1], parts[2]
	switch keyword {
	case "HELP":
		if !validName(name) {
			return fmt.Errorf("line %d: invalid family name %q", lineNo, name)
		}
		return nil
	case "TYPE":
		if !validName(name) {
			return fmt.Errorf("line %d: invalid family name %q", lineNo, name)
		}
		if len(parts) != 4 {
			return fmt.Errorf("line %d: # TYPE without a type", lineNo)
		}
		typ := parts[3]
		switch typ {
		case TypeCounter, TypeGauge, TypeHistogram:
		default:
			return fmt.Errorf("line %d: unknown metric type %q", lineNo, typ)
		}
		if _, dup := p.families[name]; dup {
			return fmt.Errorf("line %d: duplicate # TYPE for family %q", lineNo, name)
		}
		f := &Family{Name: name, Type: typ}
		p.families[name] = f
		p.order = append(p.order, name)
		return nil
	default:
		return fmt.Errorf("line %d: unknown comment keyword %q", lineNo, keyword)
	}
}

// sample parses one exposition sample line and attributes it to its
// declared family.
func (p *expoParser) sample(line string, lineNo int) error {
	nameEnd := strings.IndexAny(line, "{ ")
	if nameEnd <= 0 {
		return fmt.Errorf("line %d: malformed sample %q", lineNo, line)
	}
	sampleName := line[:nameEnd]
	if !validName(sampleName) {
		return fmt.Errorf("line %d: invalid sample name %q", lineNo, sampleName)
	}
	rest := line[nameEnd:]
	var labels []Label
	if rest[0] == '{' {
		var err error
		labels, rest, err = parseLabels(rest, lineNo)
		if err != nil {
			return err
		}
	}
	valueText := strings.TrimSpace(rest)
	if valueText == "" {
		return fmt.Errorf("line %d: sample %q missing value", lineNo, sampleName)
	}
	value, err := parseValue(valueText)
	if err != nil {
		return fmt.Errorf("line %d: sample %q: %v", lineNo, sampleName, err)
	}

	fam, suffix, err := p.familyOf(sampleName, lineNo)
	if err != nil {
		return err
	}
	key := sampleName + "|" + labelKey(labels)
	if p.seen[key] {
		return fmt.Errorf("line %d: duplicate sample %s{%s}", lineNo, sampleName, labelKey(labels))
	}
	p.seen[key] = true
	fam.Samples = append(fam.Samples, Sample{Suffix: suffix, Labels: labels, Value: value})
	return nil
}

// familyOf resolves a sample name to its declared family and checks the
// suffix is legal for the family's type.
func (p *expoParser) familyOf(sampleName string, lineNo int) (*Family, string, error) {
	for _, suffix := range []string{"_total", "_bucket", "_count", "_sum", ""} {
		base := strings.TrimSuffix(sampleName, suffix)
		if suffix != "" && base == sampleName {
			continue
		}
		fam, ok := p.families[base]
		if !ok {
			continue
		}
		switch fam.Type {
		case TypeCounter:
			if suffix != "_total" {
				return nil, "", fmt.Errorf("line %d: counter family %q sample must be %s_total, got %q", lineNo, base, base, sampleName)
			}
		case TypeGauge:
			if suffix != "" {
				return nil, "", fmt.Errorf("line %d: gauge family %q sample must be bare, got %q", lineNo, base, sampleName)
			}
		case TypeHistogram:
			if suffix != "_bucket" && suffix != "_count" && suffix != "_sum" {
				return nil, "", fmt.Errorf("line %d: histogram family %q does not allow sample %q", lineNo, base, sampleName)
			}
		}
		return fam, suffix, nil
	}
	return nil, "", fmt.Errorf("line %d: sample %q has no preceding # TYPE declaration", lineNo, sampleName)
}

// parseLabels consumes a {name="value",...} block, returning the labels
// and the remainder of the line.
func parseLabels(s string, lineNo int) ([]Label, string, error) {
	var labels []Label
	i := 1 // past '{'
	for {
		if i >= len(s) {
			return nil, "", fmt.Errorf("line %d: unterminated label block", lineNo)
		}
		if s[i] == '}' {
			return labels, s[i+1:], nil
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, "", fmt.Errorf("line %d: label without '='", lineNo)
		}
		name := s[i : i+eq]
		if !validName(name) {
			return nil, "", fmt.Errorf("line %d: invalid label name %q", lineNo, name)
		}
		i += eq + 1
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("line %d: label value for %q not quoted", lineNo, name)
		}
		i++
		var val strings.Builder
		for {
			if i >= len(s) {
				return nil, "", fmt.Errorf("line %d: unterminated label value for %q", lineNo, name)
			}
			c := s[i]
			if c == '\\' {
				if i+1 >= len(s) {
					return nil, "", fmt.Errorf("line %d: dangling escape in label %q", lineNo, name)
				}
				switch s[i+1] {
				case '\\':
					val.WriteByte('\\')
				case '"':
					val.WriteByte('"')
				case 'n':
					val.WriteByte('\n')
				default:
					return nil, "", fmt.Errorf("line %d: bad escape \\%c in label %q", lineNo, s[i+1], name)
				}
				i += 2
				continue
			}
			if c == '"' {
				i++
				break
			}
			val.WriteByte(c)
			i++
		}
		labels = append(labels, Label{Name: name, Value: val.String()})
		if i < len(s) && s[i] == ',' {
			i++
		}
	}
}

// parseValue accepts finite floats and the +Inf le edge convention.
func parseValue(s string) (float64, error) {
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad value %q", s)
	}
	if math.IsNaN(v) {
		return 0, fmt.Errorf("NaN value")
	}
	return v, nil
}

// labelKey renders a label set canonically (sorted) for dedup keys.
func labelKey(labels []Label) string {
	parts := make([]string, 0, len(labels))
	for _, l := range labels {
		parts = append(parts, l.Name+"="+l.Value)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// validate runs the per-family structural checks after all lines parse.
func (p *expoParser) validate() error {
	for _, name := range p.order {
		fam := p.families[name]
		if fam.Type == TypeHistogram {
			if err := validateHistogram(fam); err != nil {
				return err
			}
		}
		for _, s := range fam.Samples {
			if fam.Type != TypeGauge && s.Value < 0 {
				return fmt.Errorf("family %q: negative %s sample %g", fam.Name, fam.Type, s.Value)
			}
		}
		p.ordered = append(p.ordered, *fam)
	}
	return nil
}

// histSeries groups one histogram's samples by their non-le label set.
type histSeries struct {
	edges  []float64
	counts []float64
	inf    *float64
	count  *float64
	sum    bool
}

// validateHistogram checks bucket monotonicity, the +Inf closing
// bucket, and count/bucket agreement for every label set of the family.
func validateHistogram(fam *Family) error {
	series := map[string]*histSeries{}
	groupKey := func(labels []Label) string {
		var rest []Label
		for _, l := range labels {
			if l.Name != "le" {
				rest = append(rest, l)
			}
		}
		return labelKey(rest)
	}
	get := func(k string) *histSeries {
		h := series[k]
		if h == nil {
			h = &histSeries{}
			series[k] = h
		}
		return h
	}
	var keys []string
	for _, s := range fam.Samples {
		k := groupKey(s.Labels)
		if _, ok := series[k]; !ok {
			keys = append(keys, k)
		}
		h := get(k)
		switch s.Suffix {
		case "_bucket":
			le := ""
			for _, l := range s.Labels {
				if l.Name == "le" {
					le = l.Value
				}
			}
			if le == "" {
				return fmt.Errorf("family %q: _bucket sample without le label", fam.Name)
			}
			if le == "+Inf" {
				v := s.Value
				h.inf = &v
				continue
			}
			edge, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return fmt.Errorf("family %q: bad le edge %q", fam.Name, le)
			}
			h.edges = append(h.edges, edge)
			h.counts = append(h.counts, s.Value)
		case "_count":
			v := s.Value
			h.count = &v
		case "_sum":
			h.sum = true
		}
	}
	for _, k := range keys {
		h := series[k]
		label := fam.Name
		if k != "" {
			label += "{" + k + "}"
		}
		for i := 1; i < len(h.edges); i++ {
			if h.edges[i] <= h.edges[i-1] {
				return fmt.Errorf("histogram %s: le edges not increasing (%g after %g)", label, h.edges[i], h.edges[i-1])
			}
			if h.counts[i] < h.counts[i-1] {
				return fmt.Errorf("histogram %s: cumulative bucket counts decrease at le=%g", label, h.edges[i])
			}
		}
		if h.inf == nil {
			return fmt.Errorf("histogram %s: missing le=\"+Inf\" bucket", label)
		}
		if len(h.counts) > 0 && h.counts[len(h.counts)-1] > *h.inf {
			return fmt.Errorf("histogram %s: finite bucket exceeds +Inf bucket", label)
		}
		if h.count == nil {
			return fmt.Errorf("histogram %s: missing _count", label)
		}
		if *h.count != *h.inf {
			return fmt.Errorf("histogram %s: _count %g != +Inf bucket %g", label, *h.count, *h.inf)
		}
		if !h.sum {
			return fmt.Errorf("histogram %s: missing _sum", label)
		}
	}
	return nil
}
