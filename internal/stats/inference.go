package stats

import "math"

// This file adds the inferential statistics used for sensitivity analysis
// of the distinguishability criterion: Welch's t-test, an alternative to
// the Cohen's d threshold.

// WelchT returns Welch's t statistic and the Welch–Satterthwaite degrees
// of freedom for two samples. It returns (0, 0) when either sample has
// fewer than two points or both variances are zero.
func WelchT(a, b []float64) (t, df float64) {
	na, nb := float64(len(a)), float64(len(b))
	if na < 2 || nb < 2 {
		return 0, 0
	}
	va, vb := Variance(a), Variance(b)
	sa, sb := va/na, vb/nb
	se := sa + sb
	if se == 0 {
		return 0, 0
	}
	t = (Mean(a) - Mean(b)) / math.Sqrt(se)
	den := sa*sa/(na-1) + sb*sb/(nb-1)
	if den == 0 {
		return t, 0
	}
	df = se * se / den
	return t, df
}

// welchCriticalT approximates the two-sided 1% critical value of the t
// distribution for the given degrees of freedom (a conservative table
// lookup with linear interpolation; adequate for a pass/fail criterion).
func welchCriticalT(df float64) float64 {
	table := []struct {
		df   float64
		crit float64
	}{
		{1, 63.66}, {2, 9.92}, {3, 5.84}, {4, 4.60}, {5, 4.03},
		{6, 3.71}, {8, 3.36}, {10, 3.17}, {15, 2.95}, {20, 2.85},
		{30, 2.75}, {60, 2.66}, {120, 2.62}, {1e9, 2.58},
	}
	if df <= table[0].df {
		return table[0].crit
	}
	for i := 1; i < len(table); i++ {
		if df <= table[i].df {
			lo, hi := table[i-1], table[i]
			frac := (df - lo.df) / (hi.df - lo.df)
			return lo.crit + frac*(hi.crit-lo.crit)
		}
	}
	return 2.58
}

// WelchDistinguishable reports whether two samples differ at the 1% level
// under Welch's t-test — an alternative to the Cohen's d criterion, used
// to check that Table I's verdicts are not an artifact of the threshold
// choice. Identical constant samples are indistinguishable; constant
// samples with different values are trivially distinguishable.
func WelchDistinguishable(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if Variance(a) == 0 && Variance(b) == 0 {
		return Mean(a) != Mean(b)
	}
	t, df := WelchT(a, b)
	if df <= 0 {
		return false
	}
	return math.Abs(t) > welchCriticalT(df)
}
