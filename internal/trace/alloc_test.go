package trace_test

import (
	"testing"

	"jskernel/internal/expr"
	"jskernel/internal/trace"
)

// loopscanStream records one obs-on loopscan/jskernel-chrome cell at
// reps 1: the stream the record-path pins and benchmarks run over.
func loopscanStream(t testing.TB) []trace.Record {
	t.Helper()
	a, ok := expr.TimingRow("loopscan")
	_, d, ok2 := expr.Table1Column("jskernel-chrome")
	if !ok || !ok2 {
		t.Fatal("loopscan/jskernel-chrome is not a Table I cell")
	}
	res := expr.RunCell(expr.Cell{Timing: a, Defense: d, Reps: 1, Seed: 42}, expr.Instruments{Records: true, Obs: true})
	recs := res.Trace.Records()
	if len(recs) == 0 {
		t.Fatal("cell emitted no records")
	}
	return recs
}

// TestStreamValidatorAllocs pins that the validator keeps each event's
// state by value: over a recorded cell stream it allocates only as its
// per-scope and per-thread tables grow, never once per event.
func TestStreamValidatorAllocs(t *testing.T) {
	recs := loopscanStream(t)
	events := 0
	for i := range recs {
		if recs[i].Op == trace.OpEnqueue {
			events++
		}
	}
	allocs := testing.AllocsPerRun(2, func() {
		v := trace.NewStreamValidator(false)
		for i := range recs {
			v.Observe(recs[i])
		}
		if _, err := v.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > float64(events)/64 {
		t.Fatalf("validating %d records (%d events) allocated %.0f times; want at most %d",
			len(recs), events, allocs, events/64)
	}
}
