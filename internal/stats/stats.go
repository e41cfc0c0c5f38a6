// Package stats provides the small statistical toolkit used by every
// experiment in this reproduction: summary statistics, CDFs, percentiles,
// cosine similarity (the paper's DOM-compatibility metric), and an
// effect-size based distinguishability test (the success criterion for
// timing side channels).
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// sortedKeys returns m's keys in sorted order, the deterministic way to
// iterate a map whose visit order reaches any output.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for n < 2).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 {
	return Percentile(xs, 50)
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks. It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// MinMax returns the smallest and largest values in xs.
func MinMax(xs []float64) (lo, hi float64, err error) {
	if len(xs) == 0 {
		return 0, 0, ErrEmpty
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi, nil
}

// Summary bundles the descriptive statistics reported in the paper's tables.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	StdDev float64
	Min    float64
	Max    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		StdDev: StdDev(xs),
	}
	if lo, hi, err := MinMax(xs); err == nil {
		s.Min, s.Max = lo, hi
	}
	return s
}

// CDFPoint is one step of an empirical cumulative distribution function.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of samples <= Value, in (0, 1]
}

// CDF returns the empirical CDF of xs as a step function, one point per
// sample, sorted by value. This is the form Figure 3 of the paper plots.
func CDF(xs []float64) []CDFPoint {
	if len(xs) == 0 {
		return nil
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	points := make([]CDFPoint, len(sorted))
	for i, v := range sorted {
		points[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(sorted))}
	}
	return points
}

// CohensD returns the absolute standardized difference between two samples
// (Cohen's d with pooled standard deviation). A deterministic defense makes
// both samples identical, giving d == 0; a leaky channel gives large d.
func CohensD(a, b []float64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	var pooled float64
	if na+nb > 2 {
		pooled = math.Sqrt(((na-1)*va + (nb-1)*vb) / (na + nb - 2))
	}
	diff := math.Abs(Mean(a) - Mean(b))
	if pooled == 0 {
		if diff == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return diff / pooled
}

// DistinguishableThreshold is the Cohen's d above which two secret-dependent
// measurement distributions count as distinguishable: the attack succeeded.
// 2.0 corresponds to almost non-overlapping distributions; every "vulnerable"
// cell in Table I clears it by an order of magnitude, and every "defended"
// cell sits at exactly 0.
const DistinguishableThreshold = 2.0

// Distinguishable reports whether measurements of two different secrets can
// be told apart, i.e. whether the side channel leaks.
func Distinguishable(a, b []float64) bool {
	return CohensD(a, b) >= DistinguishableThreshold
}

// CosineSimilarity returns the cosine of the angle between two term
// frequency vectors, the metric the paper uses to compare DOM renders with
// and without JSKernel. Keys missing from one map count as zero. Two empty
// maps are identical (similarity 1).
func CosineSimilarity(a, b map[string]float64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	// Float accumulation is not associative, so iterate in sorted key
	// order: byte-identical results across runs matter more here than
	// the cost of two sorts (term vectors are small).
	var dot, na, nb float64
	for _, k := range sortedKeys(a) {
		va := a[k]
		dot += va * b[k]
		na += va * va
	}
	for _, k := range sortedKeys(b) {
		vb := b[k]
		nb += vb * vb
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// RelativeOverhead returns (with-base)/base as a fraction, e.g. 0.02 for a
// 2% slowdown. A negative result means "with" was faster.
func RelativeOverhead(base, with float64) float64 {
	if base == 0 {
		return 0
	}
	return (with - base) / base
}

// LinearSlope fits y = a + b*x by least squares and returns b. The script
// parsing experiment (Figure 2) uses it to quantify how strongly reported
// time grows with file size under each defense.
func LinearSlope(xs, ys []float64) float64 {
	n := len(xs)
	if n == 0 || n != len(ys) {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var num, den float64
	for i := 0; i < n; i++ {
		num += (xs[i] - mx) * (ys[i] - my)
		den += (xs[i] - mx) * (xs[i] - mx)
	}
	if den == 0 {
		return 0
	}
	return num / den
}
