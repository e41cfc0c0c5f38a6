// Package hb performs happens-before analysis over the kernel trace
// stream (internal/trace) and detects data races on shared browser
// targets with a FastTrack-style algorithm.
//
// The analysis consumes the same Record stream every other trace sink
// sees, in Seq order, and maintains:
//
//   - one vector clock per execution context. A context is a simulated
//     thread ("t<id>") or a per-target hazard guardian ("g:<class>:<id>")
//     — a pseudo-context that models the freed/forbidden state a defense
//     must order against. Guardian accesses participate in happens-before
//     only through their own program order, so they race with any plain
//     access unless the defense suppressed the hazard entirely.
//
//   - sanctioned synchronization edges, reconstructed from the stream:
//     kernel event lifecycle (enqueue/confirm release → dispatch acquire,
//     which covers timer arm→fire and kernel-mediated postMessage),
//     explicit kernel sync objects (OpEdge rel/acq: the shared-buffer
//     serialization lock, the §III-E2 kernel-space handshake), native
//     message channels (FIFO send→delivery per worker/frame/self
//     channel), worker spawn (created→ready), and fetch issue→
//     completion/abort.
//
//   - per-target access history in FastTrack form: the last write as an
//     epoch (context@clock), reads as a single epoch while totally
//     ordered, promoted to a full per-context read map only when reads
//     are genuinely concurrent (the "full VC fallback").
//
// Two plain accesses additionally race only when their in-task cursor
// times fall within the same temporal window as the attack models in
// internal/vuln use (raceWindow, 100µs), with the same signed
// convention: happens-before alone cannot distinguish a defense that
// separates accesses in time (Fuzzyfox's coarsened scheduling) from no
// defense at all, because the simulator's native layer carries no lock
// the pacing could be expressed through. Guardian-involving pairs race
// whenever they are unordered — a state hazard does not decay with
// distance.
package hb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// Window is the temporal-overlap window for plain-plain access pairs,
// mirroring internal/vuln's raceWindow.
const Window = 100 * sim.Microsecond

// VC is a vector clock over the dense per-run context index.
type VC []uint64

// at returns the component for context index i (zero when the vector is
// too short — contexts the holder has never synchronized with).
func (v VC) at(i int) uint64 {
	if i < len(v) {
		return v[i]
	}
	return 0
}

// set grows the vector as needed and sets component i.
func (v *VC) set(i int, val uint64) {
	for len(*v) <= i {
		*v = append(*v, 0)
	}
	(*v)[i] = val
}

// join folds other into v component-wise (max).
func (v *VC) join(other VC) {
	for i, c := range other {
		if c > v.at(i) {
			v.set(i, c)
		}
	}
}

// clone returns an independent copy.
func (v VC) clone() VC {
	out := make(VC, len(v))
	copy(out, v)
	return out
}

// Site describes one access involved in a race.
type Site struct {
	// Context names the accessing execution context: "t<thread>" for a
	// simulated thread, "g:<class>:<id>" for a target's hazard guardian.
	Context string `json:"ctx"`
	// Seq is the trace record sequence number of the access.
	Seq uint64 `json:"seq"`
	// VT is the access's in-task cursor virtual time.
	VT sim.Time `json:"vt"`
	// Action is the access kind: "r", "w", with "g" appended for
	// guardian-attributed accesses.
	Action string `json:"action"`
	// Clock is the accessing context's logical clock at the access (its
	// FastTrack epoch component).
	Clock uint64 `json:"clock"`
	// VC renders the accessing context's full vector clock at the access
	// when the detector still had it (the second access of a pair); the
	// first access is summarized by its epoch alone, which is exactly
	// the state FastTrack retains.
	VC string `json:"vc,omitempty"`
}

// Finding is one detected race: two conflicting accesses to the same
// target with no happens-before path between them.
type Finding struct {
	Run    int    `json:"run"`
	Class  string `json:"class"`  // target class: "worker", "buffer", ...
	Target int64  `json:"target"` // target ID within the class
	First  Site   `json:"first"`
	Second Site   `json:"second"`
	// Guardian marks hazard-witness races: one side is the target's
	// guardian context, so the race encodes a state hazard (use-after-
	// free, use-after-teardown, origin exposure) rather than a timing
	// overlap.
	Guardian bool `json:"guardian"`
	// Evidence lists the trace record Seqs establishing the race: the
	// two access records, in stream order.
	Evidence []uint64 `json:"evidence"`
}

// key orders and dedups findings deterministically.
func (f Finding) key() string {
	return fmt.Sprintf("%d/%s/%d/%s/%s/%s/%s", f.Run, f.Class, f.Target,
		f.First.Context, f.Second.Context, f.First.Action, f.Second.Action)
}

// site is the internal per-access record kept in target state.
type site struct {
	ctx      int
	clock    uint64
	seq      uint64
	vt       sim.Time
	action   string
	guardian bool
}

// targetState is FastTrack per-target state: last write epoch, and reads
// as one epoch until they are observed concurrent, then a per-context
// read map.
type targetState struct {
	write   *site
	read    *site
	readMap map[int]*site
}

// chanMsg is one in-flight FIFO channel message (sender's clock).
type chanMsg struct{ vc VC }

type chanKey struct {
	id   int64  // worker ID, frame ID or thread ID depending on kind
	kind string // "to-worker", "to-parent", "transfer", "self", "to-frame", "from-frame"
}

type syncKey struct {
	api   string
	value int64
}

type evKey struct {
	scope int
	event uint64
}

type targetKey struct {
	class string
	id    int64
}

// runState is all happens-before state for one trace run.
type runState struct {
	ctxIdx  map[string]int
	ctxName []string
	vcs     []VC
	// threads caches each thread's context index, so the per-record
	// path never formats a context name.
	threads map[int]int

	syncs   map[syncKey]VC
	events  map[evKey]VC
	chans   map[chanKey][]chanMsg
	spawns  map[int]VC
	fetches map[int64]VC

	targets map[targetKey]*targetState
}

func newRunState() *runState {
	return &runState{
		ctxIdx:  make(map[string]int),
		threads: make(map[int]int),
		syncs:   make(map[syncKey]VC),
		events:  make(map[evKey]VC),
		chans:   make(map[chanKey][]chanMsg),
		spawns:  make(map[int]VC),
		fetches: make(map[int64]VC),
		targets: make(map[targetKey]*targetState),
	}
}

// ctx interns a context name and returns its dense index.
func (rs *runState) ctx(name string) int {
	if i, ok := rs.ctxIdx[name]; ok {
		return i
	}
	i := len(rs.ctxName)
	rs.ctxIdx[name] = i
	rs.ctxName = append(rs.ctxName, name)
	rs.vcs = append(rs.vcs, VC{})
	return i
}

// tick advances context i's own component and returns the new clock.
func (rs *runState) tick(i int) uint64 {
	v := &rs.vcs[i]
	c := v.at(i) + 1
	v.set(i, c)
	return c
}

// threadCtx interns the context for a thread ID, "t<id>".
func (rs *runState) threadCtx(thread int) int {
	if i, ok := rs.threads[thread]; ok {
		return i
	}
	i := rs.ctx("t" + strconv.Itoa(thread))
	rs.threads[thread] = i
	return i
}

// renderVC formats a vector clock with context names, for findings.
func (rs *runState) renderVC(v VC) string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i, c := range v {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%s=%d", rs.ctxName[i], c)
	}
	b.WriteByte('}')
	return b.String()
}

// Detector is a streaming race detector over the trace record stream.
// It implements trace.Sink, so it attaches to a live session exactly
// like the obs sinks; a nil *Detector is a valid no-op sink. Records
// must arrive in Seq order per run, which Session guarantees.
type Detector struct {
	runs      map[int]*runState
	window    sim.Duration
	findings  []Finding
	seen      map[string]bool
	onFinding func(Finding)
}

// NewDetector returns a streaming detector with the standard temporal
// window.
func NewDetector() *Detector {
	return &Detector{runs: make(map[int]*runState), window: Window, seen: make(map[string]bool)}
}

// SetWindow overrides the plain-plain temporal-overlap window. Schedule
// exploration widens it to catalogue *every* unordered conflicting pair
// (DPOR's racing-transition candidates), while a second detector keeps
// the standard window for exploitability verdicts.
func (d *Detector) SetWindow(w sim.Duration) {
	if d == nil {
		return
	}
	d.window = w
}

// SetOnFinding installs a callback invoked synchronously as each new
// (deduplicated) finding is recorded, before Observe returns. Explore
// uses it to stop a run at first detection so the recorded choice
// vector is a minimal replay token. Nil removes the callback.
func (d *Detector) SetOnFinding(fn func(Finding)) {
	if d == nil {
		return
	}
	d.onFinding = fn
}

var _ trace.Sink = (*Detector)(nil)

// Findings returns the detected races sorted by (run, class, target,
// second-access seq) — a deterministic order independent of map
// iteration.
func (d *Detector) Findings() []Finding {
	if d == nil {
		return nil
	}
	out := make([]Finding, len(d.findings))
	copy(out, d.findings)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Target != b.Target {
			return a.Target < b.Target
		}
		return a.Second.Seq < b.Second.Seq
	})
	return out
}

// RacesOn counts findings on one target class.
func (d *Detector) RacesOn(class string) int {
	if d == nil {
		return 0
	}
	n := 0
	for _, f := range d.findings {
		if f.Class == class {
			n++
		}
	}
	return n
}

// Replay runs the detector over a recorded trace (e.g. one re-imported
// through trace.ReadRecords) and returns the findings.
func Replay(recs []trace.Record) []Finding {
	d := NewDetector()
	for _, r := range recs {
		d.Observe(r)
	}
	return d.Findings()
}

// Observe consumes one trace record (trace.Sink).
func (d *Detector) Observe(r trace.Record) {
	if d == nil {
		return
	}
	rs := d.runs[r.Run]
	if rs == nil {
		rs = newRunState()
		d.runs[r.Run] = rs
	}
	switch r.Op {
	case trace.OpAccess:
		d.access(rs, r)
	case trace.OpEdge:
		rs.edge(r)
	case trace.OpEnqueue, trace.OpConfirm:
		rs.release(r)
	case trace.OpDispatch:
		rs.acquire(r)
	case trace.OpCancel, trace.OpExpire:
		rs.retire(r)
	case trace.OpNative:
		rs.native(r)
	default:
		if r.Thread != 0 {
			rs.tick(rs.threadCtx(r.Thread))
		}
	}
}

// release publishes the enqueuing/confirming thread's clock into the
// kernel event's sync state (OpEnqueue, OpConfirm).
func (rs *runState) release(r trace.Record) {
	ci := rs.threadCtx(r.Thread)
	rs.tick(ci)
	k := evKey{scope: r.Scope, event: r.Event}
	v := rs.events[k]
	v.join(rs.vcs[ci])
	rs.events[k] = v
}

// acquire joins the kernel event's accumulated sync state into the
// dispatching thread (OpDispatch) and retires the event.
func (rs *runState) acquire(r trace.Record) {
	ci := rs.threadCtx(r.Thread)
	rs.tick(ci)
	k := evKey{scope: r.Scope, event: r.Event}
	if v, ok := rs.events[k]; ok {
		rs.vcs[ci].join(v)
		delete(rs.events, k)
	}
}

// retire drops sync state for a cancelled/expired kernel event.
func (rs *runState) retire(r trace.Record) {
	if r.Thread != 0 {
		rs.tick(rs.threadCtx(r.Thread))
	}
	delete(rs.events, evKey{scope: r.Scope, event: r.Event})
}

// edge handles explicit kernel sync objects (OpEdge): "rel" publishes
// the thread's clock into the object, "acq" joins the object into the
// thread.
func (rs *runState) edge(r trace.Record) {
	ci := rs.threadCtx(r.Thread)
	rs.tick(ci)
	k := syncKey{api: r.API, value: r.Value}
	switch r.Action {
	case "rel":
		v := rs.syncs[k]
		v.join(rs.vcs[ci])
		rs.syncs[k] = v
	case "acq":
		if v, ok := rs.syncs[k]; ok {
			rs.vcs[ci].join(v)
		}
	}
}

// native reconstructs happens-before edges from bridged native-layer
// events: message-channel FIFOs, worker spawn, and fetch lifecycle.
func (rs *runState) native(r trace.Record) {
	ci := rs.threadCtx(r.Thread)
	rs.tick(ci)
	switch r.API {
	case "post-message":
		switch r.Reason {
		case "to-worker":
			rs.send(chanKey{int64(r.WorkerID), "to-worker"}, ci)
		case "to-parent":
			rs.send(chanKey{int64(r.WorkerID), "to-parent"}, ci)
		case "self":
			rs.send(chanKey{int64(r.Thread), "self"}, ci)
		case "to-frame":
			rs.send(chanKey{r.Value, "to-frame"}, ci)
		case "to-parent-window":
			rs.send(chanKey{r.Value, "from-frame"}, ci)
		}
	case "transferable":
		if r.Reason == "to-parent" {
			rs.send(chanKey{int64(r.WorkerID), "transfer"}, ci)
		}
	case "message-delivered":
		switch r.Reason {
		case "to-worker":
			rs.recv(chanKey{int64(r.WorkerID), "to-worker"}, ci)
		case "to-parent", "after-teardown":
			// An after-teardown delivery still popped the same channel a
			// live document would have; the hazard itself is witnessed by
			// the "doc" guardian access, not by a missing edge.
			rs.recv(chanKey{int64(r.WorkerID), "to-parent"}, ci)
		case "transfer":
			rs.recv(chanKey{int64(r.WorkerID), "transfer"}, ci)
		case "self":
			rs.recv(chanKey{int64(r.Thread), "self"}, ci)
		case "to-frame":
			rs.recv(chanKey{r.Value, "to-frame"}, ci)
		case "from-frame":
			rs.recv(chanKey{r.Value, "from-frame"}, ci)
		case "released-use":
			// Delivery into a released worker slot is not a sanctioned
			// receive: the "worker" guardian access witnesses it instead.
		}
	case "worker-created":
		rs.spawns[r.WorkerID] = rs.vcs[ci].clone()
	case "worker-ready":
		if v, ok := rs.spawns[r.WorkerID]; ok {
			rs.vcs[ci].join(v)
			delete(rs.spawns, r.WorkerID)
		}
	case "fetch-start":
		rs.fetches[r.Value] = rs.vcs[ci].clone()
	case "fetch-done", "fetch-abort":
		if v, ok := rs.fetches[r.Value]; ok {
			rs.vcs[ci].join(v)
			delete(rs.fetches, r.Value)
		}
	}
}

// send pushes the sender's clock onto a FIFO channel.
func (rs *runState) send(k chanKey, ci int) {
	rs.chans[k] = append(rs.chans[k], chanMsg{vc: rs.vcs[ci].clone()})
}

// recv pops the channel head and joins it into the receiver. An empty
// channel (a delivery whose send the kernel rewrote) contributes no
// edge, which can only make the analysis report more races, never
// fewer.
func (rs *runState) recv(k chanKey, ci int) {
	q := rs.chans[k]
	if len(q) == 0 {
		return
	}
	rs.vcs[ci].join(q[0].vc)
	rs.chans[k] = q[1:]
}

// access processes one shared-target access record: FastTrack race
// checks against the target's history, then history update.
func (d *Detector) access(rs *runState, r trace.Record) {
	guardian := strings.Contains(r.Action, "g")
	write := strings.Contains(r.Action, "w")
	var ci int
	if guardian {
		ci = rs.ctx(fmt.Sprintf("g:%s:%d", r.API, r.Value))
	} else {
		ci = rs.threadCtx(r.Thread)
	}
	clock := rs.tick(ci)
	cur := &site{ctx: ci, clock: clock, seq: r.Seq, vt: r.VT, action: r.Action, guardian: guardian}
	tk := targetKey{class: r.API, id: r.Value}
	ts := rs.targets[tk]
	if ts == nil {
		ts = &targetState{}
		rs.targets[tk] = ts
	}
	vc := rs.vcs[ci]

	// Race checks: current access vs the target's history. Reads are
	// only checked against the last write; writes against the write and
	// every retained read.
	if ts.write != nil {
		d.check(rs, r, tk, ts.write, cur, vc)
	}
	if write {
		if ts.read != nil {
			d.check(rs, r, tk, ts.read, cur, vc)
		}
		for _, rd := range sortedReads(ts.readMap) {
			d.check(rs, r, tk, rd, cur, vc)
		}
	}

	// History update (FastTrack): a write supersedes the whole history;
	// a read stays a single epoch while reads remain ordered and is
	// promoted to the per-context map only on concurrent readers.
	if write {
		ts.write = cur
		ts.read = nil
		ts.readMap = nil
		return
	}
	if ts.readMap != nil {
		ts.readMap[ci] = cur
		return
	}
	if ts.read == nil || ts.read.ctx == ci || ts.read.clock <= vc.at(ts.read.ctx) {
		// Fast path: same reader, or the previous read epoch is ordered
		// before us — one epoch still summarizes the read history.
		ts.read = cur
		return
	}
	// Concurrent readers: fall back to the full per-context read map.
	ts.readMap = map[int]*site{ts.read.ctx: ts.read, ci: cur}
	ts.read = nil
}

// check tests one (previous, current) access pair and records a finding
// when they conflict, are unordered, and pass the temporal-window rule.
func (d *Detector) check(rs *runState, r trace.Record, tk targetKey, prev, cur *site, vc VC) {
	if prev.ctx == cur.ctx {
		return // program order
	}
	if !strings.Contains(prev.action, "w") && !strings.Contains(cur.action, "w") {
		return // read-read pairs never conflict
	}
	if prev.clock <= vc.at(prev.ctx) {
		return // ordered: prev happens-before cur
	}
	guardian := prev.guardian || cur.guardian
	if !guardian && cur.vt-prev.vt > d.window {
		// Unordered but temporally separated: outside the attack window
		// the interleaving is not exploitable (this is how coarsened-
		// scheduling defenses actually defend). The check is signed, as
		// in internal/vuln: records arrive in task-commit order, so a
		// later record with an *earlier* cursor time means the two tasks'
		// execution intervals genuinely overlapped — always racy.
		return
	}
	f := Finding{
		Run:    r.Run,
		Class:  tk.class,
		Target: tk.id,
		First: Site{
			Context: rs.ctxName[prev.ctx], Seq: prev.seq, VT: prev.vt,
			Action: prev.action, Clock: prev.clock,
		},
		Second: Site{
			Context: rs.ctxName[cur.ctx], Seq: cur.seq, VT: cur.vt,
			Action: cur.action, Clock: cur.clock, VC: rs.renderVC(vc),
		},
		Guardian: guardian,
		Evidence: []uint64{prev.seq, cur.seq},
	}
	k := f.key()
	if d.seen[k] {
		return
	}
	d.seen[k] = true
	d.findings = append(d.findings, f)
	if d.onFinding != nil {
		d.onFinding(f)
	}
}

// sortedReads returns the read map's entries in deterministic context
// order.
func sortedReads(m map[int]*site) []*site {
	if len(m) == 0 {
		return nil
	}
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	out := make([]*site, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}
