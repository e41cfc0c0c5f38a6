package expr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"jskernel/internal/attack"
)

// TestTable1PlainDeterminism is the plain-mode twin of the chaos
// determinism test: the Table I matrix run twice in one process must
// serialize byte-identically — rendered table, every per-cell verdict,
// and every channel statistic and raw sample down to the float bit
// pattern. This is the property jsk-lint's analyzers exist to protect;
// the test catches whatever a static check cannot.
func TestTable1PlainDeterminism(t *testing.T) {
	a := renderTable1(t, quickTable1(t))
	fresh, err := Table1(QuickConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	b := renderTable1(t, fresh)
	if a == b {
		return
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			t.Fatalf("Table I matrix is not reproducible; first divergence at line %d:\n  run1: %s\n  run2: %s", i+1, al[i], bl[i])
		}
	}
	t.Fatalf("Table I matrix is not reproducible: run1 has %d lines, run2 has %d", len(al), len(bl))
}

// renderTable1 serializes one full Table I run with bit-exact floats.
func renderTable1(t *testing.T, res *Table1Result) string {
	t.Helper()
	var sb strings.Builder
	if err := res.Table.Render(&sb); err != nil {
		t.Fatalf("render: %v", err)
	}
	dumpOutcomeMatrix(&sb, "timing", res.Timing)
	dumpOutcomeMatrix(&sb, "cve", res.CVE)
	return sb.String()
}

func dumpOutcomeMatrix(sb *strings.Builder, label string, m map[string]map[string]attack.Outcome) {
	for _, row := range sortedOutcomeKeys(m) {
		cells := m[row]
		for _, id := range sortedOutcomeKeys(cells) {
			o := cells[id]
			fmt.Fprintf(sb, "%s %s/%s defended=%v exploited=%v", label, row, id, o.Defended, o.Exploited)
			for _, ch := range o.Channels {
				fmt.Fprintf(sb, " %s[a=%s b=%s d=%s leaks=%v]",
					ch.Channel, hexFloat(ch.MeanA), hexFloat(ch.MeanB), hexFloat(ch.CohensD), ch.Leaks)
			}
			for _, ch := range sortedOutcomeKeys(o.Samples) {
				for v, xs := range o.Samples[ch] {
					fmt.Fprintf(sb, "\n  samples %s/%d:", ch, v)
					for _, x := range xs {
						sb.WriteString(" " + hexFloat(x))
					}
				}
			}
			sb.WriteByte('\n')
		}
	}
}

// hexFloat formats with full bit fidelity, so even one ULP of
// accumulated drift between runs fails the comparison.
func hexFloat(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

func sortedOutcomeKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
