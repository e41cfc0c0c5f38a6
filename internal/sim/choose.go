package sim

import "sort"

// This file is the simulator's scheduler seam. The priority queue orders
// events by (time, seq), so whenever several events share the earliest
// virtual timestamp the dispatch order among them is a tie-break — the
// one place the simulated world has genuine scheduling freedom. By
// default the tie resolves in scheduling order (lowest seq first),
// which is the behaviour every golden trace pins. A Chooser hooks
// exactly that decision: schedule-space exploration (internal/explore)
// installs one to enumerate alternative interleavings, and because a
// whole run is otherwise a pure function of the seed, a run is fully
// described by the sequence of tie-break decisions — a replayable
// choice vector.

// Choice describes one ready candidate at a tie-break point.
type Choice struct {
	// ID is the event's cancellation handle.
	ID EventID
	// Seq is the event's scheduling sequence number — stable across
	// replays of the same prefix, so it identifies the event in recorded
	// schedules.
	Seq uint64
	// At is the shared virtual timestamp of every candidate.
	At Time
	// Name is the event's diagnostic name.
	Name string
}

// Chooser breaks ties among same-virtual-time ready events. Choose is
// consulted only when two or more events share the earliest timestamp;
// cands is ordered by Seq (the default dispatch order), and the return
// value indexes into it. Out-of-range returns fall back to index 0.
// Implementations must be deterministic functions of their own state
// and the candidate list — the simulator's reproducibility contract
// extends through the seam.
type Chooser interface {
	Choose(now Time, cands []Choice) int
}

// DispatchObserver is an optional interface a Chooser may implement to
// watch every dispatch — including forced steps with a single ready
// candidate, which are never offered to Choose. Exploration recorders
// use it to map trace records back to the step (and thus the choice
// point) that executed them. Dispatched runs after the step counter
// advances and before the event's callback.
type DispatchObserver interface {
	Dispatched(step uint64, c Choice)
}

// SetChooser installs a scheduler tie-break hook (nil restores the
// default lowest-seq order). If the chooser also implements
// DispatchObserver it receives every dispatch. Installing a chooser
// mid-run is allowed but exploration installs one before any event is
// scheduled so the recorded choice vector covers the whole run.
func (s *Simulator) SetChooser(c Chooser) {
	s.chooser = c
	s.observer, _ = c.(DispatchObserver)
}

// readyTies returns the slot of every pending event sharing the earliest
// timestamp, in seq order. Only called on a non-empty queue.
func (s *Simulator) readyTies() []int32 {
	at := s.events[s.queue[0]].at
	var ties []int32
	for _, slot := range s.queue {
		if s.events[slot].at == at {
			ties = append(ties, slot)
		}
	}
	sort.Slice(ties, func(i, j int) bool { return s.events[ties[i]].seq < s.events[ties[j]].seq })
	return ties
}

// chooseNext resolves the next event through the installed chooser and
// removes it from the queue, returning its slot. A single ready
// candidate is forced and never offered to Choose, so replayable choice
// vectors contain only genuine decisions.
func (s *Simulator) chooseNext() int32 {
	ties := s.readyTies()
	idx := 0
	if len(ties) > 1 {
		cands := make([]Choice, len(ties))
		for i, slot := range ties {
			ev := &s.events[slot]
			cands[i] = Choice{ID: makeID(slot, ev.gen), Seq: ev.seq, At: ev.at, Name: ev.name}
		}
		idx = s.chooser.Choose(s.now, cands)
		if idx < 0 || idx >= len(ties) {
			idx = 0
		}
	}
	slot := ties[idx]
	s.remove(int(s.events[slot].index))
	return slot
}
