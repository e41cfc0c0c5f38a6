package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMean(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almost(got, tc.want) {
				t.Fatalf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almost(got, 32.0/7.0) {
		t.Fatalf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !almost(got, math.Sqrt(32.0/7.0)) {
		t.Fatalf("StdDev = %v", got)
	}
	if Variance([]float64{3}) != 0 {
		t.Fatal("variance of single sample should be 0")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); !almost(got, 2) {
		t.Fatalf("Median odd = %v", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); !almost(got, 2.5) {
		t.Fatalf("Median even = %v", got)
	}
	xs := []float64{10, 20, 30, 40, 50}
	if got := Percentile(xs, 0); !almost(got, 10) {
		t.Fatalf("P0 = %v", got)
	}
	if got := Percentile(xs, 100); !almost(got, 50) {
		t.Fatalf("P100 = %v", got)
	}
	if got := Percentile(xs, 25); !almost(got, 20) {
		t.Fatalf("P25 = %v", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("P50 of empty = %v", got)
	}
}

func TestMinMax(t *testing.T) {
	lo, hi, err := MinMax([]float64{3, -1, 7, 2})
	if err != nil {
		t.Fatal(err)
	}
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v, %v", lo, hi)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Fatal("MinMax(nil) should error")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3})
	if s.N != 3 || !almost(s.Mean, 2) || !almost(s.Median, 2) || s.Min != 1 || s.Max != 3 {
		t.Fatalf("Summary = %+v", s)
	}
}

func TestCDF(t *testing.T) {
	pts := CDF([]float64{3, 1, 2})
	if len(pts) != 3 {
		t.Fatalf("len = %d", len(pts))
	}
	if pts[0].Value != 1 || !almost(pts[0].Fraction, 1.0/3) {
		t.Fatalf("first point = %+v", pts[0])
	}
	if pts[2].Value != 3 || !almost(pts[2].Fraction, 1) {
		t.Fatalf("last point = %+v", pts[2])
	}
	if CDF(nil) != nil {
		t.Fatal("CDF(nil) should be nil")
	}
}

func TestCohensD(t *testing.T) {
	a := []float64{10, 10.1, 9.9, 10, 10.05}
	b := []float64{20, 20.1, 19.9, 20, 20.05}
	if d := CohensD(a, b); d < 50 {
		t.Fatalf("well-separated samples d = %v, want large", d)
	}
	if d := CohensD(a, a); d != 0 {
		t.Fatalf("identical samples d = %v, want 0", d)
	}
	// Deterministic defense: zero variance, equal means.
	c1 := []float64{5, 5, 5}
	c2 := []float64{5, 5, 5}
	if d := CohensD(c1, c2); d != 0 {
		t.Fatalf("constant equal samples d = %v", d)
	}
	// Zero variance but different means: infinitely distinguishable.
	c3 := []float64{6, 6, 6}
	if d := CohensD(c1, c3); !math.IsInf(d, 1) {
		t.Fatalf("constant unequal samples d = %v, want +Inf", d)
	}
}

func TestDistinguishable(t *testing.T) {
	a := []float64{1, 1.01, 0.99}
	b := []float64{5, 5.01, 4.99}
	if !Distinguishable(a, b) {
		t.Fatal("clearly separated samples not distinguishable")
	}
	if Distinguishable(a, a) {
		t.Fatal("identical samples distinguishable")
	}
}

func TestCosineSimilarity(t *testing.T) {
	a := map[string]float64{"div": 2, "span": 1}
	if got := CosineSimilarity(a, a); !almost(got, 1) {
		t.Fatalf("self similarity = %v", got)
	}
	b := map[string]float64{"img": 3}
	if got := CosineSimilarity(a, b); !almost(got, 0) {
		t.Fatalf("orthogonal similarity = %v", got)
	}
	if got := CosineSimilarity(nil, nil); !almost(got, 1) {
		t.Fatalf("empty-empty similarity = %v", got)
	}
	if got := CosineSimilarity(a, nil); !almost(got, 0) {
		t.Fatalf("nonempty-empty similarity = %v", got)
	}
}

func TestRelativeOverhead(t *testing.T) {
	if got := RelativeOverhead(100, 102); !almost(got, 0.02) {
		t.Fatalf("overhead = %v", got)
	}
	if got := RelativeOverhead(100, 95); !almost(got, -0.05) {
		t.Fatalf("speedup = %v", got)
	}
	if got := RelativeOverhead(0, 5); got != 0 {
		t.Fatalf("zero base = %v", got)
	}
}

func TestLinearSlope(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // slope 2
	if got := LinearSlope(xs, ys); !almost(got, 2) {
		t.Fatalf("slope = %v", got)
	}
	flat := []float64{4, 4, 4, 4}
	if got := LinearSlope(xs, flat); !almost(got, 0) {
		t.Fatalf("flat slope = %v", got)
	}
	if got := LinearSlope(flat, ys); got != 0 {
		t.Fatalf("degenerate x slope = %v", got)
	}
}

func TestPropertyPercentileWithinRange(t *testing.T) {
	f := func(raw []float64, p float64) bool {
		if len(raw) == 0 {
			return true
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
		}
		pp := math.Mod(math.Abs(p), 100)
		got := Percentile(raw, pp)
		lo, hi, err := MinMax(raw)
		if err != nil {
			return false
		}
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCosineBounds(t *testing.T) {
	f := func(ka, kb []uint8) bool {
		a := make(map[string]float64)
		b := make(map[string]float64)
		for _, k := range ka {
			a[string(rune('a'+k%26))]++
		}
		for _, k := range kb {
			b[string(rune('a'+k%26))]++
		}
		got := CosineSimilarity(a, b)
		return got >= -1e-9 && got <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		for i, v := range raw {
			if math.IsNaN(v) {
				raw[i] = 0
			}
		}
		pts := CDF(raw)
		for i := 1; i < len(pts); i++ {
			if pts[i].Value < pts[i-1].Value || pts[i].Fraction < pts[i-1].Fraction {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
