package obs

import (
	"fmt"
	"io"
	"sort"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// The virtual-time profiler: a Sink that attributes dispatch latency
// (enqueue → dispatch in virtual time) to (run, scope, API, policy
// rule) as the records stream past. The rule attributed to an event is
// the action of the last call-level policy verdict the kernel emitted
// for that (run, API) before the registration — the kernel always emits
// the call verdict immediately before the event's enqueue — falling
// back to "scheduled" for events that never crossed a call-level
// verdict (native-bridged registrations, kernel-internal timers).

// ProfileNode is one leaf of the profile: every dispatch charged to the
// same (run, scope, API, rule) tuple.
type ProfileNode struct {
	Run   int    `json:"run"`
	Scope int    `json:"scope"`
	API   string `json:"api"`
	Rule  string `json:"rule"`
	// Count is the number of dispatches charged to this node.
	Count int64 `json:"count"`
	// WaitTotal is the summed enqueue→dispatch virtual latency.
	WaitTotal sim.Duration `json:"wait_total_ns"`
	// WaitMax is the largest single enqueue→dispatch latency.
	WaitMax sim.Duration `json:"wait_max_ns"`
}

// RunProfile is the per-run header of the profile.
type RunProfile struct {
	Run int `json:"run"`
	// Policy names the kernel policy that governed the run, taken from
	// the run's first install record ("" for kernel-less runs).
	Policy string `json:"policy,omitempty"`
	// VirtualEnd is the largest virtual timestamp seen in the run: the
	// simulated time the run consumed.
	VirtualEnd sim.Time `json:"virtual_end_ns"`
	// Dispatches and WaitTotal aggregate the run's nodes.
	Dispatches int64        `json:"dispatches"`
	WaitTotal  sim.Duration `json:"wait_total_ns"`
}

// pendingEv is an enqueued-but-undispatched event awaiting attribution.
type pendingEv struct {
	enqVT sim.Time
	rule  string
}

// apiRule is one API's last call-level verdict within a run.
type apiRule struct{ api, rule string }

// runProf is the profiler's state for one run. A run's APIs, rules and
// (scope, API, rule) leaves are few, so they are found by a scan that
// compares strings instead of hashing them.
type runProf struct {
	run    int
	policy string // from the run's first install record naming one
	maxVT  sim.Time
	rules  []apiRule      // last call-level verdict per API
	nodes  []*ProfileNode // the run's leaves, in first-dispatch order
}

// rule returns the rule the next registration of api is charged to.
func (rp *runProf) rule(api string) string {
	for i := range rp.rules {
		if rp.rules[i].api == api {
			return rp.rules[i].rule
		}
	}
	return "scheduled"
}

// setRule records api's latest call-level verdict.
func (rp *runProf) setRule(api, rule string) {
	for i := range rp.rules {
		if rp.rules[i].api == api {
			rp.rules[i].rule = rule
			return
		}
	}
	rp.rules = append(rp.rules, apiRule{api, rule})
}

// node returns the run's leaf for (scope, api, rule), creating it.
func (rp *runProf) node(scope int, api, rule string) *ProfileNode {
	for _, n := range rp.nodes {
		if n.Scope == scope && n.API == api && n.Rule == rule {
			return n
		}
	}
	n := &ProfileNode{Run: rp.run, Scope: scope, API: api, Rule: rule}
	rp.nodes = append(rp.nodes, n)
	return n
}

// Profiler accumulates the virtual-time profile from a record stream.
type Profiler struct {
	runs    map[int]*runProf
	cur     *runProf // the last record's run
	pending map[uint64]pendingEv
}

var _ trace.Sink = (*Profiler)(nil)

// NewProfiler returns an empty profiler.
func NewProfiler() *Profiler {
	return &Profiler{
		runs:    make(map[int]*runProf),
		pending: make(map[uint64]pendingEv),
	}
}

// eventKey mirrors trace.Record.key: scope IDs are session-unique and
// event IDs are unique within a scope.
func eventKey(r *trace.Record) uint64 { return uint64(r.Scope)<<32 | r.Event }

// run returns run's state, found once per change of run.
func (p *Profiler) run(run int) *runProf {
	if p.cur != nil && p.cur.run == run {
		return p.cur
	}
	rp := p.runs[run]
	if rp == nil {
		rp = &runProf{run: run}
		p.runs[run] = rp
	}
	p.cur = rp
	return rp
}

// Observe folds one stamped record into the profile.
func (p *Profiler) Observe(r trace.Record) {
	rp := p.run(r.Run)
	if r.VT > rp.maxVT {
		rp.maxVT = r.VT
	}
	switch r.Op {
	case trace.OpInstall:
		if rp.policy == "" {
			rp.policy = r.Reason
		}
	case trace.OpPolicy:
		// Only call-level verdicts (Event 0) name the rule that admitted
		// the next registration; the per-event "schedule" echo carries no
		// extra attribution.
		if r.Event == 0 {
			rp.setRule(r.API, r.Action)
		}
	case trace.OpEnqueue:
		if r.Event == 0 || r.Scope == 0 {
			return
		}
		p.pending[eventKey(&r)] = pendingEv{enqVT: r.VT, rule: rp.rule(r.API)}
	case trace.OpDispatch:
		if r.Event == 0 || r.Scope == 0 {
			return
		}
		k := eventKey(&r)
		pe, ok := p.pending[k]
		if !ok {
			return
		}
		delete(p.pending, k)
		node := rp.node(r.Scope, r.API, pe.rule)
		wait := r.VT - pe.enqVT
		node.Count++
		node.WaitTotal += sim.Duration(wait)
		if sim.Duration(wait) > node.WaitMax {
			node.WaitMax = sim.Duration(wait)
		}
	case trace.OpShed, trace.OpCancel, trace.OpExpire:
		if r.Event != 0 && r.Scope != 0 {
			delete(p.pending, eventKey(&r))
		}
	}
}

// Nodes returns the profile leaves sorted by (run, scope, API, rule).
func (p *Profiler) Nodes() []ProfileNode {
	n := 0
	for _, rp := range p.runs {
		n += len(rp.nodes)
	}
	out := make([]ProfileNode, 0, n)
	for _, rp := range p.runs {
		for _, n := range rp.nodes {
			out = append(out, *n)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		if a.API != b.API {
			return a.API < b.API
		}
		return a.Rule < b.Rule
	})
	return out
}

// RunProfiles returns the per-run headers sorted by run. A run whose
// records all sit at virtual time zero consumed no simulated time and
// gets no header.
func (p *Profiler) RunProfiles() []RunProfile {
	out := make([]RunProfile, 0, len(p.runs))
	for _, rp := range p.runs {
		if rp.maxVT > 0 {
			out = append(out, RunProfile{Run: rp.run, Policy: rp.policy, VirtualEnd: rp.maxVT})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Run < out[j].Run })
	// Aggregate node totals into their runs (nodes are few; a second
	// pass keeps the hot Observe path allocation-free).
	for _, n := range p.Nodes() {
		for i := range out {
			if out[i].Run == n.Run {
				out[i].Dispatches += n.Count
				out[i].WaitTotal += n.WaitTotal
				break
			}
		}
	}
	return out
}

// WriteFolded emits the profile as collapsed-stack flamegraph text: one
// line per leaf, semicolon-separated frames, the sample value being the
// total dispatch wait in virtual nanoseconds.
func (p *Profiler) WriteFolded(w io.Writer) error {
	for _, n := range p.Nodes() {
		if _, err := fmt.Fprintf(w, "run%d;scope%d;%s;%s %d\n",
			n.Run, n.Scope, n.API, n.Rule, int64(n.WaitTotal)); err != nil {
			return err
		}
	}
	return nil
}

// WriteTree emits a pprof-style text tree: runs, their scopes, their
// APIs, and the per-rule dispatch-wait aggregates underneath.
func (p *Profiler) WriteTree(w io.Writer) error {
	nodes := p.Nodes()
	var total int64
	var wait sim.Duration
	for _, n := range nodes {
		total += n.Count
		wait += n.WaitTotal
	}
	if _, err := fmt.Fprintf(w, "virtual-time profile: %d dispatches, %.3fms total wait\n",
		total, wait.Milliseconds()); err != nil {
		return err
	}
	for _, rp := range p.RunProfiles() {
		policy := rp.Policy
		if policy == "" {
			policy = "(no kernel)"
		}
		if _, err := fmt.Fprintf(w, "run %d  policy=%s  virtual-end=%.3fms  dispatches=%d  wait=%.3fms\n",
			rp.Run, policy, rp.VirtualEnd.Milliseconds(), rp.Dispatches, rp.WaitTotal.Milliseconds()); err != nil {
			return err
		}
		lastScope, lastAPI := -1, ""
		for _, n := range nodes {
			if n.Run != rp.Run {
				continue
			}
			if n.Scope != lastScope {
				if _, err := fmt.Fprintf(w, "  scope %d\n", n.Scope); err != nil {
					return err
				}
				lastScope, lastAPI = n.Scope, ""
			}
			if n.API != lastAPI {
				if _, err := fmt.Fprintf(w, "    %s\n", n.API); err != nil {
					return err
				}
				lastAPI = n.API
			}
			avg := 0.0
			if n.Count > 0 {
				avg = n.WaitTotal.Milliseconds() / float64(n.Count)
			}
			if _, err := fmt.Fprintf(w, "      %-12s %6d dispatches  wait total=%.3fms avg=%.3fms max=%.3fms\n",
				n.Rule, n.Count, n.WaitTotal.Milliseconds(), avg, n.WaitMax.Milliseconds()); err != nil {
				return err
			}
		}
	}
	return nil
}
