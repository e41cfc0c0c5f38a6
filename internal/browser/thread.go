package browser

import (
	"sort"

	"jskernel/internal/sim"
)

// task is one unit of work queued on a thread's event loop: a closure,
// or a typed firing whose payload waits in a slot table. A typed task
// names a timer slot of the registering scope (scope non-nil) or a
// letter slot of the thread (scope nil); handle is the slot and its
// generation, so a task whose slot was cleared and reused does nothing.
// The loop's one dispatch function runs both kinds, so registering a
// timer or posting a message builds no closure.
type task struct {
	arrival sim.Time
	fn      func(g *Global)
	scope   *Global
	handle  uint64
}

// Thread is one browser thread — the main thread or a web worker — with a
// serial event loop multiplexed onto the simulator. A thread executes one
// task at a time; while a task runs, the thread's virtual cursor advances
// with each costed operation, and queued tasks wait until the cursor's
// final position (the task's completion time).
type Thread struct {
	b      *Browser
	id     int
	name   string
	isMain bool

	// pending[head:] is the queue in (arrival, insertion) order.
	// Dispatch advances head instead of reslicing, so the backing array
	// is reused once the queue empties (or compacted when an append
	// would grow it).
	pending   []task
	head      int
	running   bool
	busyUntil sim.Time
	cursor    sim.Time
	wakeup    sim.EventID
	hasWakeup bool

	// loopName and dispatch are the wakeup event's name and callback,
	// built once so rescheduling the loop allocates nothing.
	loopName string
	dispatch func()

	global     *Global
	terminated bool

	// onMessage is the native message handler slot. Defenses trap the
	// setter; this field holds whatever the effective handler is.
	onMessage func(g *Global, m MessageEvent)
	// inbox holds messages delivered before a handler was installed.
	inbox []MessageEvent

	// letters holds the messages in flight to this thread, each the
	// payload of one typed task; freeLetters lists reusable slots.
	letters     []letter
	freeLetters []int32

	// tasksExecuted counts dispatched tasks (loopscan instrumentation).
	tasksExecuted int
}

// ID returns the thread's unique id.
func (t *Thread) ID() int { return t.id }

// Name returns the thread's diagnostic name.
func (t *Thread) Name() string { return t.name }

// IsMain reports whether this is the browser's main thread.
func (t *Thread) IsMain() bool { return t.isMain }

// Terminated reports whether the thread has been terminated.
func (t *Thread) Terminated() bool { return t.terminated }

// Global returns the thread's global object (its JS scope).
func (t *Thread) Global() *Global { return t.global }

// TasksExecuted reports how many tasks the loop has dispatched.
func (t *Thread) TasksExecuted() int { return t.tasksExecuted }

// Now returns the thread's current virtual time: the in-task cursor while
// executing, otherwise the later of simulator time and the loop's busy
// horizon.
func (t *Thread) Now() sim.Time {
	if t.running {
		return t.cursor
	}
	if t.busyUntil > t.b.Sim.Now() {
		return t.busyUntil
	}
	return t.b.Sim.Now()
}

// PostTask enqueues fn to run on this thread no earlier than `at`. Tasks
// run in (arrival, insertion) order, one at a time.
func (t *Thread) PostTask(at sim.Time, fn func(g *Global)) {
	if t.terminated || fn == nil {
		return
	}
	t.post(task{arrival: at, fn: fn})
}

// post inserts a task into the queue and pumps the loop.
func (t *Thread) post(tk task) {
	if t.terminated {
		return
	}
	at := tk.arrival
	// Insertion order breaks arrival ties, so the new task goes after
	// every queued task arriving no later than it.
	q := t.pending[t.head:]
	i := t.head + sort.Search(len(q), func(i int) bool { return q[i].arrival > at })
	if t.head > 0 && len(t.pending) == cap(t.pending) {
		n := copy(t.pending, q)
		clear(t.pending[n:])
		t.pending = t.pending[:n]
		i -= t.head
		t.head = 0
	}
	t.pending = append(t.pending, task{})
	copy(t.pending[i+1:], t.pending[i:])
	t.pending[i] = tk
	t.pump()
}

// QueueDepth reports the number of tasks waiting to run.
func (t *Thread) QueueDepth() int { return len(t.pending) - t.head }

// pump (re)schedules the loop's next dispatch. Called whenever the queue or
// busy state changes.
func (t *Thread) pump() {
	if t.running || t.terminated || t.QueueDepth() == 0 {
		return
	}
	startAt := t.pending[t.head].arrival
	if t.busyUntil > startAt {
		startAt = t.busyUntil
	}
	if now := t.b.Sim.Now(); now > startAt {
		startAt = now
	}
	if t.hasWakeup {
		t.b.Sim.Cancel(t.wakeup)
	}
	t.wakeup = t.b.Sim.Schedule(startAt, t.loopName, t.dispatch)
	t.hasWakeup = true
}

// dispatchOne pops and runs the head task.
func (t *Thread) dispatchOne() {
	t.hasWakeup = false
	if t.terminated || t.QueueDepth() == 0 {
		return
	}
	tk := t.pending[t.head]
	t.pending[t.head] = task{}
	t.head++
	if t.head == len(t.pending) {
		t.pending = t.pending[:0]
		t.head = 0
	}
	t.running = true
	t.cursor = t.b.Sim.Now()
	t.cursor += t.b.Profile.TaskDispatch
	t.tasksExecuted++
	switch {
	case tk.fn != nil:
		tk.fn(t.global)
	case tk.scope != nil:
		tk.scope.fireTimer(t.global, tk.handle)
	default:
		t.deliverLetter(tk.handle)
	}
	t.global.drainMicrotasks()
	t.running = false
	t.busyUntil = t.cursor
	t.pump()
}

// advance moves the in-task cursor forward by a cost. Calling it outside a
// task (e.g. from harness code) pushes the busy horizon instead, modeling
// synchronous work between events.
func (t *Thread) advance(d sim.Duration) {
	if d <= 0 {
		return
	}
	if t.running {
		t.cursor += d
		return
	}
	now := t.Now()
	t.busyUntil = now + d
	t.pump()
}

// terminate tears the thread down, dropping queued tasks.
func (t *Thread) terminate() {
	if t.terminated {
		return
	}
	t.terminated = true
	t.pending, t.head = nil, 0
	t.letters, t.freeLetters = nil, nil
	if t.hasWakeup {
		t.b.Sim.Cancel(t.wakeup)
		t.hasWakeup = false
	}
}

// deliverMessage hands a message event to the thread's handler, or parks it
// in the inbox until one is installed.
func (t *Thread) deliverMessage(m MessageEvent) {
	if t.terminated {
		return
	}
	if t.onMessage == nil {
		t.inbox = append(t.inbox, m)
		return
	}
	h := t.onMessage
	h(t.global, m)
}

// setOnMessage installs the native message handler and drains the inbox.
func (t *Thread) setOnMessage(h func(g *Global, m MessageEvent)) {
	t.onMessage = h
	if h == nil || len(t.inbox) == 0 {
		return
	}
	queued := t.inbox
	t.inbox = nil
	for _, m := range queued {
		if l := t.postLetter(t.Now(), routeHandler); l != nil {
			l.msg, l.handler = m, h
		}
	}
}
