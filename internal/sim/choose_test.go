package sim

import "testing"

// pickChooser returns a fixed index at every choice point and counts
// consultations.
type pickChooser struct {
	idx    int
	calls  int
	widths []int
}

func (c *pickChooser) Choose(_ Time, cands []Choice) int {
	c.calls++
	c.widths = append(c.widths, len(cands))
	return c.idx
}

// lastChooser always picks the highest-seq candidate.
type lastChooser struct{}

func (lastChooser) Choose(_ Time, cands []Choice) int { return len(cands) - 1 }

// dispatchLog records every dispatch via the observer facet.
type dispatchLog struct {
	pickChooser
	steps []uint64
	names []string
}

func (d *dispatchLog) Dispatched(step uint64, c Choice) {
	d.steps = append(d.steps, step)
	d.names = append(d.names, c.Name)
}

// tieRun schedules n events at the same timestamp plus one earlier and
// one later event, runs the simulator, and returns the dispatch order
// of the tied group.
func tieRun(t *testing.T, c Chooser, n int) []int {
	t.Helper()
	s := New(1)
	s.SetChooser(c)
	var got []int
	s.Schedule(50, "early", func() {})
	for i := 0; i < n; i++ {
		i := i
		s.Schedule(100, "tie", func() { got = append(got, i) })
	}
	s.Schedule(200, "late", func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// TestNilChooserKeepsDefaultOrder pins the byte-identical contract: a
// nil chooser and an index-0 chooser both reproduce the historical
// scheduling-order tie break.
func TestNilChooserKeepsDefaultOrder(t *testing.T) {
	def := tieRun(t, nil, 8)
	first := tieRun(t, &pickChooser{idx: 0}, 8)
	if len(def) != 8 || len(first) != 8 {
		t.Fatalf("dispatch counts: default %d, chooser %d", len(def), len(first))
	}
	for i := range def {
		if def[i] != i || first[i] != i {
			t.Fatalf("tie order drifted: default %v, index-0 chooser %v", def, first)
		}
	}
}

// TestChooserReversesTies checks the seam actually steers the schedule:
// always picking the last candidate dispatches the tied group in
// reverse scheduling order.
func TestChooserReversesTies(t *testing.T) {
	got := tieRun(t, lastChooser{}, 5)
	want := []int{4, 3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

// TestForcedStepsNeverConsultChooser: a single ready candidate is not a
// choice point — Choose fires only on genuine ties, so recorded choice
// vectors stay minimal.
func TestForcedStepsNeverConsultChooser(t *testing.T) {
	c := &pickChooser{}
	s := New(1)
	s.SetChooser(c)
	for i := 0; i < 5; i++ {
		s.Schedule(Time(10*(i+1)), "solo", func() {})
	}
	s.Schedule(100, "tie-a", func() {})
	s.Schedule(100, "tie-b", func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if c.calls != 1 {
		t.Fatalf("chooser consulted %d times, want exactly 1 (the single 2-way tie)", c.calls)
	}
	if len(c.widths) != 1 || c.widths[0] != 2 {
		t.Fatalf("candidate widths %v, want [2]", c.widths)
	}
}

// TestOutOfRangeChoiceClamps: a misbehaving chooser falls back to the
// default candidate instead of panicking or skipping the step.
func TestOutOfRangeChoiceClamps(t *testing.T) {
	for _, idx := range []int{-3, 99} {
		c := &pickChooser{idx: idx}
		got := tieRun(t, c, 4)
		for i := range got {
			if got[i] != i {
				t.Fatalf("idx=%d: got %v, want default order", idx, got)
			}
		}
	}
}

// TestDispatchObserverSeesEverything: the observer facet reports every
// dispatch — forced steps included — with 1-based increasing step
// numbers, so exploration recorders can map records to steps.
func TestDispatchObserverSeesEverything(t *testing.T) {
	d := &dispatchLog{}
	s := New(1)
	s.SetChooser(d)
	s.Schedule(10, "a", func() {})
	s.Schedule(20, "b1", func() {})
	s.Schedule(20, "b2", func() {})
	s.Schedule(30, "c", func() {})
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(d.steps) != 4 {
		t.Fatalf("observer saw %d dispatches, want 4 (names %v)", len(d.steps), d.names)
	}
	for i, step := range d.steps {
		if step != uint64(i+1) {
			t.Fatalf("step numbers %v, want 1..4", d.steps)
		}
	}
	if d.calls != 1 {
		t.Fatalf("chooser consulted %d times, want 1", d.calls)
	}
}

// TestChooserTieCancellation: cancelling a tied sibling from inside a
// tie candidate's callback removes it before the next choice point —
// the chooser is never offered a cancelled event.
func TestChooserTieCancellation(t *testing.T) {
	c := &pickChooser{}
	s := New(1)
	s.SetChooser(c)
	fired := map[string]bool{}
	var victim EventID
	s.Schedule(100, "killer", func() {
		fired["killer"] = true
		if !s.Cancel(victim) {
			t.Fatal("victim not pending at cancellation")
		}
	})
	victim = s.Schedule(100, "victim", func() { fired["victim"] = true })
	s.Schedule(100, "bystander", func() { fired["bystander"] = true })
	if err := s.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !fired["killer"] || !fired["bystander"] || fired["victim"] {
		t.Fatalf("fired = %v, want killer+bystander only", fired)
	}
	// First choice point offers all three; after the cancellation the
	// bystander is forced (single candidate), so exactly one consult.
	if c.calls != 1 || c.widths[0] != 3 {
		t.Fatalf("calls=%d widths=%v, want one 3-way choice", c.calls, c.widths)
	}
}

// TestChooserDeterministicReplay: with the same chooser decisions the
// run is byte-identical — the foundation of the replay-token contract.
func TestChooserDeterministicReplay(t *testing.T) {
	run := func() []int { return tieRun(t, lastChooser{}, 6) }
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged: %v vs %v", a, b)
		}
	}
}

// TestFiringNamesTheRunningEvent: one callback scheduled under several
// IDs learns from Firing which of them is running, whichever order a
// Chooser dispatches them in; outside a callback Firing reads 0.
func TestFiringNamesTheRunningEvent(t *testing.T) {
	for _, c := range []Chooser{nil, lastChooser{}} {
		s := New(1)
		s.SetChooser(c)
		var fired []EventID
		shared := func() { fired = append(fired, s.Firing()) }
		ids := []EventID{s.Schedule(100, "a", shared), s.Schedule(100, "b", shared)}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		want := ids
		if c != nil {
			want = []EventID{ids[1], ids[0]}
		}
		if len(fired) != 2 || fired[0] != want[0] || fired[1] != want[1] {
			t.Fatalf("chooser %T: Firing read %v, want %v", c, fired, want)
		}
		if s.Firing() != 0 {
			t.Fatalf("Firing reads %v outside a callback, want 0", s.Firing())
		}
	}
}
