package expr

import (
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
)

// TestRunCellStopsAfterCancel: once the cancellation hook has fired,
// RunCell starts no further rep. The cell is a reps-25 timing row (50
// environments uncanceled) whose hook reports cancellation from its
// first poll, so only the first rep's two environments are built.
func TestRunCellStopsAfterCancel(t *testing.T) {
	var loopscan *attack.TimingAttack
	for _, a := range attack.TimingAttacks() {
		if a.ID == "loopscan" {
			loopscan = a
		}
	}
	d, err := defense.ByID("jskernel-chrome")
	if err != nil {
		t.Fatal(err)
	}
	polls := 0
	rt := &defense.Runtime{Canceled: func() bool { polls++; return true }}
	res := RunCell(Cell{Timing: loopscan, Defense: d.WithRuntime(rt), Reps: 25, Seed: 42},
		Instruments{Forensics: true, Races: true})
	if polls == 0 {
		t.Fatal("the cancellation hook was never polled; the scenario was not exercised")
	}
	if n := res.Trace.Runs(); n > 2 {
		t.Fatalf("canceled cell built %d environments, want at most 2", n)
	}
}
