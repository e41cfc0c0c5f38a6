package sim

import "testing"

// The event table recycles slots, so the steady state of a run — one
// event scheduled per event dispatched or cancelled — allocates nothing.

func TestScheduleStepAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		s.Schedule(s.Now()+1, "tick", fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("Schedule→Step allocates %.1f times per round, want 0", allocs)
	}
}

func TestScheduleCancelAllocFree(t *testing.T) {
	s := New(1)
	fn := func() {}
	s.Schedule(5, "resident", fn) // a non-empty heap exercises sift-down
	allocs := testing.AllocsPerRun(1000, func() {
		s.Cancel(s.Schedule(3, "doomed", fn))
	})
	if allocs != 0 {
		t.Fatalf("Schedule→Cancel allocates %.1f times per round, want 0", allocs)
	}
}

// TestStaleIDAfterSlotReuse: an ID is spent once its event fires or is
// cancelled, even after a new event takes over the same slot — Cancel
// of the old ID reports false and leaves the new occupant scheduled.
func TestStaleIDAfterSlotReuse(t *testing.T) {
	runBothPaths(t, func(t *testing.T, s *Simulator) {
		fired := s.Schedule(1, "fired", func() {})
		if !s.Step() {
			t.Fatal("no event dispatched")
		}
		cancelled := s.Schedule(2, "cancelled", func() {})
		if !s.Cancel(cancelled) {
			t.Fatal("cancel of a pending event reported false")
		}
		ran := false
		live := s.Schedule(3, "live", func() { ran = true })
		for _, old := range []EventID{fired, cancelled} {
			if uint32(old) != uint32(live) {
				t.Fatalf("slot not reused: old %#x, live %#x", old, live)
			}
			if s.Cancel(old) {
				t.Fatalf("stale ID %#x cancelled the slot's new event %#x", old, live)
			}
		}
		if err := s.Run(); err != nil {
			t.Fatalf("run: %v", err)
		}
		if !ran {
			t.Fatal("the slot's new event did not fire")
		}
	})
}
