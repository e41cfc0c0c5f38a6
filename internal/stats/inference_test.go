package stats

import (
	"math"
	"testing"
)

func TestWelchTSeparatedSamples(t *testing.T) {
	a := []float64{10, 10.2, 9.8, 10.1, 9.9}
	b := []float64{20, 20.2, 19.8, 20.1, 19.9}
	tt, df := WelchT(a, b)
	if math.Abs(tt) < 50 {
		t.Fatalf("t = %v, want large for separated samples", tt)
	}
	if df <= 0 || df > 8 {
		t.Fatalf("df = %v, want in (0, 8]", df)
	}
	if !WelchDistinguishable(a, b) {
		t.Fatal("separated samples not distinguishable")
	}
}

func TestWelchTIdenticalSamples(t *testing.T) {
	a := []float64{5, 5.1, 4.9, 5.05, 4.95}
	if WelchDistinguishable(a, a) {
		t.Fatal("identical samples distinguishable")
	}
	tt, _ := WelchT(a, a)
	if tt != 0 {
		t.Fatalf("t = %v for identical samples", tt)
	}
}

func TestWelchConstantSamples(t *testing.T) {
	same := []float64{3, 3, 3}
	if WelchDistinguishable(same, []float64{3, 3, 3}) {
		t.Fatal("equal constants distinguishable")
	}
	if !WelchDistinguishable(same, []float64{4, 4, 4}) {
		t.Fatal("different constants should be trivially distinguishable")
	}
}

func TestWelchSmallSamples(t *testing.T) {
	if WelchDistinguishable([]float64{1}, []float64{100, 101}) {
		t.Fatal("single-point sample should not be distinguishable (no variance estimate)")
	}
	if WelchDistinguishable(nil, []float64{1, 2}) {
		t.Fatal("empty sample distinguishable")
	}
}

func TestWelchAgreesWithCohenOnTableIShapes(t *testing.T) {
	// The two criteria must agree on the canonical shapes: a big leak and
	// a deterministic defense.
	leakA := []float64{100, 102, 98, 101, 99}
	leakB := []float64{500, 505, 495, 502, 498}
	if Distinguishable(leakA, leakB) != WelchDistinguishable(leakA, leakB) {
		t.Fatal("criteria disagree on a clear leak")
	}
	detA := []float64{10, 10, 10, 10, 10}
	detB := []float64{10, 10, 10, 10, 10}
	if Distinguishable(detA, detB) != WelchDistinguishable(detA, detB) {
		t.Fatal("criteria disagree on a deterministic defense")
	}
}

func TestWelchCriticalTMonotone(t *testing.T) {
	last := math.Inf(1)
	for _, df := range []float64{1, 2, 3, 5, 10, 20, 50, 100, 1000} {
		c := welchCriticalT(df)
		if c > last {
			t.Fatalf("critical value not decreasing at df=%v: %v > %v", df, c, last)
		}
		last = c
	}
	if c := welchCriticalT(1e12); c != 2.58 {
		t.Fatalf("asymptotic critical value = %v", c)
	}
}
