package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestServeOpsDependOnlyOnSeed(t *testing.T) {
	a, b := serveOps(7, 6), serveOps(7, 6)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("serveOps(7) differs between calls")
	}
	if reflect.DeepEqual(a, serveOps(8, 6)) {
		t.Fatal("serveOps(7) and serveOps(8) are the same sequence")
	}
	if short := serveOps(7, 2); !reflect.DeepEqual(short, a[:len(short)]) {
		t.Fatal("a shorter run is not a prefix of a longer one")
	}
}

func TestServeOpsMix(t *testing.T) {
	ops := serveOps(1, 6)
	cells := len(serveCells())
	count := map[int]int{}
	seen := map[[2]string]int{}
	traced, forensic := 0, 0
	for i, op := range ops {
		count[op.kind]++
		switch {
		case (i+1)%100 == 0:
			if op.kind != opLedgerz {
				t.Fatalf("op %d is kind %d, want /ledgerz", i, op.kind)
			}
		case (i+1)%50 == 0:
			if op.kind != opMetricsz {
				t.Fatalf("op %d is kind %d, want /metricsz", i, op.kind)
			}
		case op.kind != opEval:
			t.Fatalf("op %d is kind %d, want /v1/eval", i, op.kind)
		default:
			seen[[2]string{op.req.Attack, op.req.Defense}]++
			if op.req.Trace {
				traced++
			}
			if op.req.Forensics {
				forensic++
			}
		}
	}
	if count[opEval] != 6*cells || count[opEval] < minOps {
		t.Fatalf("%d evaluations, want %d (at least %d)", count[opEval], 6*cells, minOps)
	}
	if len(seen) != cells {
		t.Fatalf("%d distinct cells, want %d", len(seen), cells)
	}
	for c, n := range seen {
		if n != 6 {
			t.Fatalf("cell %v requested %d times, want once per pass", c, n)
		}
	}
	for name, n := range map[string]int{"trace": traced, "forensics": forensic} {
		if n < count[opEval]/6 || n > count[opEval]/4 {
			t.Errorf("%d of %d requests set %s, want about one in five", n, count[opEval], name)
		}
	}
}

func TestPercentiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the helper must sort
		}
		return xs
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.5 }
	for _, tc := range []struct {
		n             int
		p50, q, value float64
	}{
		{1000, 500.5, 0.99, 990.5},
		{999, 500, 0.95, 950},
		{100, 50.5, 0.9, 90.5},
		{19, 10, 0, 0},
		{20000, 10000.5, 0.999, 19980.5},
	} {
		p50, q, v := percentiles(seq(tc.n))
		if !near(p50, tc.p50) || q != tc.q || !near(v, tc.value) {
			t.Errorf("percentiles(1..%d) = %v, %v, %v; want %v, %v, %v", tc.n, p50, q, v, tc.p50, tc.q, tc.value)
		}
		if q > 0 && tc.n-rank(q, tc.n) < tailBeyond {
			t.Errorf("n=%d: quantile %v has fewer than %d samples beyond it", tc.n, q, tailBeyond)
		}
	}
}

// TestQuantileAcrossGap: with two separated modes meeting at the
// median, moving two samples across the gap moves the nearest-rank
// median from one mode to the other; the estimate moves a little.
func TestQuantileAcrossGap(t *testing.T) {
	modes := func(low int) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 10
			if i < low {
				xs[i] = 1
			}
		}
		return xs
	}
	a, b := quantile(modes(501), 0.5), quantile(modes(499), 0.5)
	if b-a > 1.5 {
		t.Errorf("median estimate moved from %v to %v when two of 1000 samples crossed the gap", a, b)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); math.Abs(got-2) > 1e-9 {
		t.Errorf("quantile(1,2,3; 0.5) = %v, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median(5,1,3) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
}

func TestSpanSelfTimeAndCoverage(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "cell", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "defense.new_env", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "attack.measure", Start: 30, End: 90},
		{ID: 4, Name: "report.render", Start: 150, End: 200},
	}}
	self := r.selfTimes()
	if got := self["cell"] * 1e9; got < 19.999 || got > 20.001 {
		t.Errorf("cell self time %vns, want 20ns", got)
	}
	if got := r.coverage(0, 200); got != 0.75 {
		t.Errorf("coverage %v, want 0.75", got)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestMetricNames(t *testing.T) {
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	for _, m := range append(append([]unit(nil), endToEndUnits...), perLayer()...) {
		if !valid.MatchString(m.name) || len(m.name) > 64 {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]{1,64}", m.name)
		}
		if seen[m.name] {
			t.Errorf("metric name %q is used twice", m.name)
		}
		seen[m.name] = true
	}
}

func TestMetricsMatchBenchmarkFile(t *testing.T) {
	b := readBenchmarkFile(t)
	var e2e, layers []unit
	for _, m := range b.EndToEnd {
		e2e = append(e2e, unit{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		layers = append(layers, unit{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEndUnits) {
		t.Errorf("BENCHMARK.json end_to_end %v, want %v", e2e, endToEndUnits)
	}
	if !reflect.DeepEqual(layers, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer %v, want %v", layers, perLayer())
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
}
