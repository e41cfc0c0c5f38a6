package attack

import (
	"testing"

	"jskernel/internal/defense"
)

// testReps keeps unit-test latency reasonable; the full experiments use
// attack.Reps.
const testReps = 5

func evalTiming(t *testing.T, a *TimingAttack, d defense.Defense) Outcome {
	t.Helper()
	return evaluate(a, d, testReps, 1000)
}

// evaluate runs reps repetitions of a against d serially, rep r seeded
// from seed+2r as expr.RunCell seeds a timing cell, and judges the
// merged samples.
func evaluate(a *TimingAttack, d defense.Defense, reps int, seed int64) Outcome {
	parts := make([]RepSamples, reps)
	for r := range parts {
		parts[r] = a.MeasureRep(d, seed+int64(r)*2)
	}
	return a.AssembleOutcome(d.ID, MergeSamples(parts))
}

// TestAllTimingAttacksLeakOnLegacyChrome verifies the attacks themselves:
// every Table I timing row must actually work against an undefended
// browser, or the defense evaluation is vacuous.
func TestAllTimingAttacksLeakOnLegacyChrome(t *testing.T) {
	for _, a := range TimingAttacks() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			t.Parallel()
			out := evalTiming(t, a, defense.Chrome())
			if out.Defended {
				t.Fatalf("%s did not leak on legacy Chrome; channels: %+v", a.ID, out.Channels)
			}
		})
	}
}

// TestAllTimingAttacksDefendedByJSKernel is the paper's core claim: the
// kernel's deterministic scheduling closes every implicit-clock channel.
func TestAllTimingAttacksDefendedByJSKernel(t *testing.T) {
	for _, a := range TimingAttacks() {
		a := a
		t.Run(a.ID, func(t *testing.T) {
			t.Parallel()
			out := evalTiming(t, a, defense.JSKernel("chrome"))
			if !out.Defended {
				best := out.BestChannel()
				t.Fatalf("%s leaked under JSKernel via %s: meanA=%v meanB=%v d=%v",
					a.ID, best.Channel, best.MeanA, best.MeanB, best.CohensD)
			}
		})
	}
}

// TestAllCVEsExploitableOnLegacy verifies every exploit driver actually
// reaches its trigger on an undefended browser.
func TestAllCVEsExploitableOnLegacy(t *testing.T) {
	for _, a := range CVEAttacks() {
		a := a
		t.Run(string(a.CVE), func(t *testing.T) {
			t.Parallel()
			out := EvaluateCVE(a, defense.Chrome(), 2000)
			if out.Err != nil {
				t.Fatalf("exploit error: %v", out.Err)
			}
			if !out.Exploited {
				t.Fatalf("%s did not trigger on legacy Chrome", a.CVE)
			}
		})
	}
}

// TestAllCVEsDefendedByJSKernel: the kernel's policies break every
// triggering sequence.
func TestAllCVEsDefendedByJSKernel(t *testing.T) {
	for _, a := range CVEAttacks() {
		a := a
		t.Run(string(a.CVE), func(t *testing.T) {
			t.Parallel()
			out := EvaluateCVE(a, defense.JSKernel("chrome"), 2000)
			if out.Exploited {
				t.Fatalf("%s triggered despite JSKernel", a.CVE)
			}
		})
	}
}

// TestDeterFoxDefendsTimingButNotCVEs captures DeterFox's position in
// Table I: determinism defeats the implicit clocks, but without the
// kernel's policies the CVE rows stay exploitable.
func TestDeterFoxDefendsTimingButNotCVEs(t *testing.T) {
	t.Parallel()
	for _, a := range []*TimingAttack{SVGFilteringAttack(), ScriptParsingAttack()} {
		out := evalTiming(t, a, defense.DeterFox())
		if !out.Defended {
			best := out.BestChannel()
			t.Errorf("%s leaked under DeterFox via %s (d=%v)", a.ID, best.Channel, best.CohensD)
		}
	}
	exploited := 0
	for _, a := range CVEAttacks() {
		if EvaluateCVE(a, defense.DeterFox(), 2000).Exploited {
			exploited++
		}
	}
	if exploited < 8 {
		t.Errorf("only %d/12 CVEs exploitable under DeterFox; expected most (no policies)", exploited)
	}
}

// TestFuzzyfoxDefendsClockEdgeOnly reflects the paper's finding that fuzzy
// time defeats clock-edge calibration but large secrets survive averaging.
func TestFuzzyfoxDefendsClockEdgeOnly(t *testing.T) {
	t.Parallel()
	if out := evalTiming(t, ClockEdgeAttack(), defense.Fuzzyfox()); !out.Defended {
		best := out.BestChannel()
		t.Errorf("clock edge leaked under Fuzzyfox (d=%v via %s)", best.CohensD, best.Channel)
	}
	if out := evalTiming(t, ScriptParsingAttack(), defense.Fuzzyfox()); out.Defended {
		t.Error("script parsing should survive Fuzzyfox's noise via averaging")
	}
}

// TestTorVulnerableToImplicitClocks: coarse explicit clocks do nothing
// against implicit ones.
func TestTorVulnerableToImplicitClocks(t *testing.T) {
	t.Parallel()
	for _, a := range []*TimingAttack{SVGFilteringAttack(), LoopscanAttack(), CacheAttack()} {
		out := evalTiming(t, a, defense.TorBrowser())
		if out.Defended {
			t.Errorf("%s should leak under Tor Browser", a.ID)
		}
	}
}

// TestChromeZeroPartialDefense: the polyfill kills the worker channel but
// the fuzzed explicit clock still leaks millisecond-scale secrets.
func TestChromeZeroPartialDefense(t *testing.T) {
	t.Parallel()
	out := evalTiming(t, SVGFilteringAttack(), defense.ChromeZero())
	if out.Defended {
		t.Error("SVG filtering should leak under Chrome Zero via the fuzzed explicit clock")
	}
	for _, c := range out.Channels {
		if c.Channel == ChannelWorkerTicks && c.Leaks {
			t.Error("worker-ticks channel should be dead under the polyfill")
		}
	}
}

// TestCriterionSensitivity: Table I's verdicts must not be an artifact of
// the Cohen's d threshold — Welch's t-test at the 1% level agrees on the
// canonical cells.
func TestCriterionSensitivity(t *testing.T) {
	t.Parallel()
	cells := []struct {
		attack  *TimingAttack
		defense defense.Defense
	}{
		{SVGFilteringAttack(), defense.Chrome()},
		{SVGFilteringAttack(), defense.JSKernel("chrome")},
		{ScriptParsingAttack(), defense.TorBrowser()},
		{CacheAttack(), defense.JSKernel("chrome")},
	}
	for _, c := range cells {
		out := evaluate(c.attack, c.defense, testReps, 4000)
		if out.Defended != out.WelchDefended() {
			t.Errorf("%s vs %s: Cohen verdict %v but Welch verdict %v",
				c.attack.ID, c.defense.ID, out.Defended, out.WelchDefended())
		}
	}
}
