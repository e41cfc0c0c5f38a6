package expr

import (
	"strings"
	"testing"
)

// TestChaosNoWeakenedVerdicts is the survival claim: re-running the
// Table I matrix under every standard fault plan must not flip any
// defended cell to vulnerable.
func TestChaosNoWeakenedVerdicts(t *testing.T) {
	res := quickChaos(t)
	if len(res.Plans) < 3 {
		t.Fatalf("expected >=3 fault plans, got %d", len(res.Plans))
	}
	for _, pr := range res.Plans {
		if pr.Faults.Total() == 0 {
			t.Errorf("plan %s injected zero faults — the chaos run proves nothing", pr.Plan.Name)
		}
		for _, f := range pr.Weakened {
			t.Errorf("plan %s weakened %s", pr.Plan.Name, f)
		}
		for _, f := range pr.Masked {
			t.Errorf("plan %s masked %s (tune plan rates down)", pr.Plan.Name, f)
		}
		if pr.Cells == 0 {
			t.Errorf("plan %s compared zero cells", pr.Plan.Name)
		}
	}
}

// TestChaosDeterminism re-runs the whole chaos experiment and requires
// the rendered report — verdicts, flip lists and fault counts — to be
// byte-identical: a run is a pure function of (defense, workload,
// fault plan, seed).
func TestChaosDeterminism(t *testing.T) {
	render := func(res *ChaosResult) string {
		var sb strings.Builder
		if err := res.Table.Render(&sb); err != nil {
			t.Fatalf("render: %v", err)
		}
		for _, pr := range res.Plans {
			if err := pr.Matrix.Table.Render(&sb); err != nil {
				t.Fatalf("render: %v", err)
			}
			sb.WriteString(pr.Faults.String())
		}
		return sb.String()
	}
	fresh, err := Chaos(QuickConfig())
	if err != nil {
		t.Fatalf("Chaos: %v", err)
	}
	a, b := render(quickChaos(t)), render(fresh)
	if a != b {
		t.Fatalf("chaos experiment is not reproducible:\n--- first ---\n%s\n--- second ---\n%s", a, b)
	}
}
