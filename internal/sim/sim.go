// Package sim implements the discrete-event simulation engine that every
// other subsystem of this repository runs on.
//
// The paper's prototype runs inside real browsers on wall-clock time. This
// reproduction replaces that substrate with virtual time: the simulator
// maintains a single global virtual clock and a priority queue of scheduled
// events. Events fire in (time, sequence) order, so a whole run — browser
// threads, network deliveries, renderer frames, kernel dispatches — is a
// pure function of the initial configuration and the PRNG seed. That
// determinism is what makes the timing side channels of the paper exactly
// measurable and the defenses exactly comparable.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
)

// Time is a virtual timestamp in nanoseconds since the start of a run.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration = Time

// Common virtual durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Milliseconds reports t as a floating-point number of milliseconds, the
// unit JavaScript's performance.now() uses.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// String formats the timestamp in milliseconds for logs and reports.
func (t Time) String() string {
	return fmt.Sprintf("%.3fms", t.Milliseconds())
}

// EventID names a scheduled event so that it can be cancelled. The low
// 32 bits index the event's slot in the simulator's event table and the
// high 32 bits carry the slot's generation at scheduling time. A slot's
// generation advances whenever its event fires or is cancelled, so a
// spent ID never matches a later occupant of the same slot (until one
// slot has been reused 2^32 times). A scheduled event's ID is never 0.
type EventID uint64

func makeID(slot int32, gen uint32) EventID { return EventID(gen)<<32 | EventID(uint32(slot)) }

// ErrStopped is returned by Run when the simulation is halted by Stop
// rather than by queue exhaustion or deadline.
var ErrStopped = errors.New("sim: stopped")

// ErrCanceled is returned by Run/RunUntil when the cooperative
// cancellation hook (SetCanceled) reports true. A canceled run is
// abandoned mid-simulation: its partial state must never be read as a
// result — callers surface a typed cancellation error instead of any
// verdict computed so far.
var ErrCanceled = errors.New("sim: run canceled")

// cancelPollStride is how many dispatches pass between polls of the
// cancellation hook. Hot runs dispatch tens of millions of events, so
// polling every step would make the hook (often a context check behind
// a mutex) a measurable tax; a stride of 64 keeps the overhead
// unmeasurable while bounding cancellation latency to 64 events.
const cancelPollStride = 64

// event is one slot of the simulator's event table. Slots are recycled
// through a free list, so scheduling in steady state allocates nothing.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	name  string
	gen   uint32 // generation of the slot's current (or next) occupant
	index int32  // position in the queue heap; -1 while the slot is free
}

// Simulator is a deterministic discrete-event scheduler over virtual time.
// It is not safe for concurrent use; all simulated "threads" are logical
// processes multiplexed onto the caller's goroutine.
type Simulator struct {
	now     Time
	seq     uint64
	events  []event // slot table, indexed by the low half of an EventID
	free    []int32 // recycled slots, reused last-freed first
	queue   []int32 // binary min-heap of slots ordered by (at, seq)
	rng     *rand.Rand
	stopped bool
	steps   uint64
	firing  EventID // ID of the event whose callback is running; 0 between steps

	// chooser, when non-nil, breaks ties among same-virtual-time ready
	// events (see choose.go); nil keeps the default lowest-seq order.
	// observer is the chooser's optional DispatchObserver facet, cached
	// at SetChooser time so the hot path pays one nil check.
	chooser  Chooser
	observer DispatchObserver

	// canceled, when non-nil, is polled between dispatches (every
	// cancelPollStride steps); returning true aborts Run/RunUntil with
	// ErrCanceled. It is the service layer's bridge for propagating
	// request deadlines and client disconnects into a simulation without
	// giving the simulated program any new observable channel: the hook
	// either lets the run finish untouched or abandons it entirely.
	canceled func() bool

	// MaxSteps bounds Run as a runaway-loop backstop; zero means no bound.
	MaxSteps uint64
}

// New returns a simulator whose PRNG is seeded with seed. Two simulators
// built with the same seed and fed the same schedule produce identical runs.
func New(seed int64) *Simulator {
	return &Simulator{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Rand exposes the run's seeded PRNG. All randomness in a simulation
// (network jitter, fuzzy clocks, workload generation) must come from here
// so runs stay reproducible.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Steps reports how many events have been dispatched so far.
func (s *Simulator) Steps() uint64 { return s.steps }

// Firing returns the ID of the event whose callback is running, or 0
// outside a callback. One callback scheduled under several IDs uses it
// to tell which of them fired: a Chooser may dispatch events that share
// a virtual time in any order, so the order they were scheduled in does
// not say.
func (s *Simulator) Firing() EventID { return s.firing }

// Pending reports the number of events still scheduled.
func (s *Simulator) Pending() int { return len(s.queue) }

// Schedule registers fn to run at virtual time at. Scheduling in the past
// (at < Now) clamps to Now: the event fires on the next step, after events
// already due. The name is used only for diagnostics.
func (s *Simulator) Schedule(at Time, name string, fn func()) EventID {
	if fn == nil {
		return 0
	}
	if at < s.now {
		at = s.now
	}
	s.seq++
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		slot = int32(len(s.events))
		s.events = append(s.events, event{gen: 1})
	}
	ev := &s.events[slot]
	ev.at, ev.seq, ev.fn, ev.name = at, s.seq, fn, name
	ev.index = int32(len(s.queue))
	s.queue = append(s.queue, slot)
	s.up(int(ev.index))
	return makeID(slot, ev.gen)
}

// After schedules fn to run d after the current virtual time.
func (s *Simulator) After(d Duration, name string, fn func()) EventID {
	return s.Schedule(s.now+d, name, fn)
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending; cancelling an already-fired, already-cancelled or unknown ID is
// a no-op, even once the event's slot holds a newer event.
func (s *Simulator) Cancel(id EventID) bool {
	slot := uint32(id)
	if slot >= uint32(len(s.events)) {
		return false
	}
	ev := &s.events[slot]
	if ev.gen != uint32(id>>32) || ev.index < 0 {
		return false
	}
	s.remove(int(ev.index))
	s.release(int32(slot))
	return true
}

// NextAt returns the virtual time of the earliest pending event. The second
// result is false when the queue is empty.
func (s *Simulator) NextAt() (Time, bool) {
	if len(s.queue) == 0 {
		return 0, false
	}
	return s.events[s.queue[0]].at, true
}

// Step dispatches the single earliest pending event, advancing virtual time
// to its timestamp. It reports whether an event was dispatched.
func (s *Simulator) Step() bool {
	if len(s.queue) == 0 {
		return false
	}
	var slot int32
	if s.chooser == nil {
		slot = s.queue[0]
		s.remove(0)
	} else {
		slot = s.chooseNext()
	}
	ev := &s.events[slot]
	c := Choice{ID: makeID(slot, ev.gen), Seq: ev.seq, At: ev.at, Name: ev.name}
	fn := ev.fn
	// The slot is free before fn runs: the event's ID is spent, and
	// anything fn schedules may take the slot over.
	s.release(slot)
	s.now = c.At
	s.steps++
	if s.observer != nil {
		s.observer.Dispatched(s.steps, c)
	}
	prev := s.firing
	s.firing = c.ID
	fn()
	s.firing = prev
	return true
}

// release retires a slot's event and returns the slot to the free list.
// Advancing the generation is what makes the retired ID stale.
func (s *Simulator) release(slot int32) {
	ev := &s.events[slot]
	ev.fn, ev.name = nil, ""
	ev.index = -1
	ev.gen++
	if ev.gen == 0 {
		ev.gen = 1
	}
	s.free = append(s.free, slot)
}

// less orders queue positions i and j by (at, seq); seq breaks ties
// deterministically in scheduling order.
func (s *Simulator) less(i, j int) bool {
	a, b := &s.events[s.queue[i]], &s.events[s.queue[j]]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Simulator) swap(i, j int) {
	q := s.queue
	q[i], q[j] = q[j], q[i]
	s.events[q[i]].index = int32(i)
	s.events[q[j]].index = int32(j)
}

func (s *Simulator) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		j = i
	}
}

func (s *Simulator) down(i0, n int) bool {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && s.less(j2, j1) {
			j = j2
		}
		if !s.less(j, i) {
			break
		}
		s.swap(i, j)
		i = j
	}
	return i > i0
}

// remove deletes queue position i, restoring the heap order. The
// removed slot stays allocated; the caller releases it.
func (s *Simulator) remove(i int) {
	n := len(s.queue) - 1
	if n != i {
		s.swap(i, n)
		if !s.down(i, n) {
			s.up(i)
		}
	}
	s.queue = s.queue[:n]
}

// Stop halts a Run in progress after the current event returns.
func (s *Simulator) Stop() { s.stopped = true }

// SetCanceled installs a cooperative-cancellation hook polled between
// event dispatches; returning true aborts Run/RunUntil with ErrCanceled.
// Nil removes the hook. The hook must be cheap and must not touch
// simulator state.
func (s *Simulator) SetCanceled(f func() bool) { s.canceled = f }

// cancelDue polls the cancellation hook on the stride boundary.
func (s *Simulator) cancelDue() bool {
	return s.canceled != nil && s.steps%cancelPollStride == 0 && s.canceled()
}

// Run dispatches events until the queue drains, Stop is called, or MaxSteps
// is exceeded. It returns ErrStopped if halted by Stop and an error when the
// step bound trips (which always indicates a scheduling loop bug).
func (s *Simulator) Run() error {
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		if s.MaxSteps > 0 && s.steps >= s.MaxSteps {
			return fmt.Errorf("sim: exceeded %d steps at %v", s.MaxSteps, s.now)
		}
		if s.cancelDue() {
			return ErrCanceled
		}
		if !s.Step() {
			return nil
		}
	}
}

// RunUntil dispatches events with timestamps <= deadline, leaving later
// events queued, and advances the clock to deadline if the run gets there.
func (s *Simulator) RunUntil(deadline Time) error {
	s.stopped = false
	for {
		if s.stopped {
			return ErrStopped
		}
		if s.MaxSteps > 0 && s.steps >= s.MaxSteps {
			return fmt.Errorf("sim: exceeded %d steps at %v", s.MaxSteps, s.now)
		}
		if s.cancelDue() {
			return ErrCanceled
		}
		at, ok := s.NextAt()
		if !ok || at > deadline {
			if s.now < deadline {
				s.now = deadline
			}
			return nil
		}
		s.Step()
	}
}
