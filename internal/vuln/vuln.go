// Package vuln models the web-concurrency-attack CVEs from Table I of the
// paper as detectors over the browser's native-layer trace. Each CVE is a
// small state machine that fires ("exploited") when the vulnerability's
// triggering invocation sequence is observed at the native layer.
//
// Because detection happens below the interposition seam, a defense that
// rewrites or suppresses the relevant native calls (as JSKernel's policies
// do) prevents the sequence from ever appearing — which is exactly the
// paper's definition of defending a web concurrency attack.
package vuln

import (
	"strings"
	"sync"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
)

// CVE identifies one modeled vulnerability.
type CVE string

// The 12 web concurrency attack CVEs evaluated in Table I.
const (
	CVE20185092 CVE = "CVE-2018-5092" // fetch abort into falsely terminated worker (UAF)
	CVE20177843 CVE = "CVE-2017-7843" // IndexedDB persists in private browsing
	CVE20157215 CVE = "CVE-2015-7215" // importScripts error leaks cross-origin URL
	CVE20143194 CVE = "CVE-2014-3194" // shared buffer data race between threads
	CVE20141719 CVE = "CVE-2014-1719" // worker terminated with messages in flight (UAF)
	CVE20141488 CVE = "CVE-2014-1488" // transferable freed with worker, used by main (UAF)
	CVE20141487 CVE = "CVE-2014-1487" // worker creation error leaks cross-origin info
	CVE20136646 CVE = "CVE-2013-6646" // worker handle GC'd with message in flight (UAF)
	CVE20135602 CVE = "CVE-2013-5602" // onmessage set on dead worker (null deref)
	CVE20131714 CVE = "CVE-2013-1714" // worker XHR bypasses same-origin policy
	CVE20111190 CVE = "CVE-2011-1190" // worker location exposes cross-origin redirect
	CVE20104576 CVE = "CVE-2010-4576" // worker message delivered after document teardown
)

// All returns every modeled CVE in a stable order.
func All() []CVE {
	return []CVE{
		CVE20185092, CVE20177843, CVE20157215, CVE20143194,
		CVE20141719, CVE20141488, CVE20141487, CVE20136646,
		CVE20135602, CVE20131714, CVE20111190, CVE20104576,
	}
}

// Description returns a one-line summary of a CVE's trigger.
func Description(c CVE) string {
	switch c {
	case CVE20185092:
		return "use-after-free: abort signal sent to a fetch whose worker was falsely terminated"
	case CVE20177843:
		return "private-browsing IndexedDB writes persist to disk"
	case CVE20157215:
		return "importScripts() error message discloses cross-origin URL details"
	case CVE20143194:
		return "data race on a shared buffer between worker and main thread"
	case CVE20141719:
		return "use-after-free: worker terminated while messages are in flight"
	case CVE20141488:
		return "use-after-free: transferable buffer freed with its worker, then used by main"
	case CVE20141487:
		return "worker creation error message discloses cross-origin information"
	case CVE20136646:
		return "use-after-free: worker object collected while a message is in flight"
	case CVE20135602:
		return "null dereference assigning onmessage to a terminated worker"
	case CVE20131714:
		return "worker XMLHttpRequest bypasses the same-origin policy"
	case CVE20111190:
		return "worker location discloses cross-origin redirect target"
	case CVE20104576:
		return "worker message delivered into a torn-down document"
	default:
		return "unknown vulnerability"
	}
}

// raceWindow is the virtual-time window within which shared-buffer
// accesses from two threads count as racing (CVE-2014-3194).
const raceWindow = 100 * sim.Microsecond

// bufAccess remembers the most recent access to a shared buffer.
type bufAccess struct {
	threadID int
	at       sim.Time
	write    bool
}

// Registry watches the native trace and records which armed CVEs had their
// triggering sequence reached. It is safe for use from a single simulation
// goroutine; the mutex guards cross-test reuse.
type Registry struct {
	mu        sync.Mutex
	armed     map[CVE]bool
	exploited map[CVE]bool

	// per-CVE state machines
	orphanedWorkers map[int]bool   // workers terminated with pending fetch
	transferredBufs map[int64]bool // buffers transferred worker→parent
	lastBufAccess   map[int64]bufAccess
}

var _ browser.Tracer = (*Registry)(nil)

// NewRegistry arms the given CVEs; with no arguments it arms all of them.
func NewRegistry(cves ...CVE) *Registry {
	if len(cves) == 0 {
		cves = All()
	}
	r := &Registry{
		armed:           make(map[CVE]bool, len(cves)),
		exploited:       make(map[CVE]bool),
		orphanedWorkers: make(map[int]bool),
		transferredBufs: make(map[int64]bool),
		lastBufAccess:   make(map[int64]bufAccess),
	}
	for _, c := range cves {
		r.armed[c] = true
	}
	return r
}

// NewUnarmedRegistry returns a registry with every detector disarmed: it
// still consumes the native trace (state machines advance so execution
// is byte-identical to an armed run) but marks nothing as exploited.
// Schedule exploration uses it to prove discoveries come from the
// happens-before detector alone, not from the scripted CVE oracles.
func NewUnarmedRegistry() *Registry {
	return &Registry{
		armed:           make(map[CVE]bool),
		exploited:       make(map[CVE]bool),
		orphanedWorkers: make(map[int]bool),
		transferredBufs: make(map[int64]bool),
		lastBufAccess:   make(map[int64]bufAccess),
	}
}

// Exploited reports whether the CVE's trigger was reached.
func (r *Registry) Exploited(c CVE) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.exploited[c]
}

// mark records an exploitation if the CVE is armed.
func (r *Registry) mark(c CVE) {
	if r.armed[c] {
		r.exploited[c] = true
	}
}

// Trace consumes one native-layer event, advancing every armed detector.
func (r *Registry) Trace(ev browser.TraceEvent) {
	r.mu.Lock()
	defer r.mu.Unlock()

	switch ev.Kind {
	case browser.TraceWorkerTerminated:
		if strings.Contains(ev.Detail, "pending-fetch") {
			r.orphanedWorkers[ev.WorkerID] = true
		}
		if strings.Contains(ev.Detail, "pending-messages") {
			r.mark(CVE20141719)
		}

	case browser.TraceFetchAbort:
		if ev.Detail == "orphaned" {
			r.mark(CVE20185092)
		}

	case browser.TraceIndexedDBPut:
		if ev.Detail == "private-mode" {
			r.mark(CVE20177843)
		}

	case browser.TraceNavigationError:
		switch ev.Detail {
		case "leaky-error":
			r.mark(CVE20157215)
		case "location-leak":
			r.mark(CVE20111190)
		}

	case browser.TraceWorkerError:
		if ev.Detail == "cross-origin-create" {
			r.mark(CVE20141487)
		}

	case browser.TraceOnMessageSet:
		if ev.Detail == "null-deref" {
			r.mark(CVE20135602)
		}

	case browser.TraceXHR:
		if ev.Detail == "cross-origin-worker" {
			r.mark(CVE20131714)
		}

	case browser.TraceMessageDelivered:
		switch ev.Detail {
		case "after-teardown":
			r.mark(CVE20104576)
		case "released-use":
			r.mark(CVE20136646)
		}

	case browser.TraceTransferable:
		if ev.Detail == "to-parent" {
			r.transferredBufs[ev.Value] = true
		}

	case browser.TraceSharedBufferOp:
		if strings.Contains(ev.Detail, "use-after-free") && r.transferredBufs[ev.Value] {
			r.mark(CVE20141488)
		}
		r.checkRace(ev)
	}
}

// checkRace flags overlapping same-buffer accesses from different threads
// where at least one side writes (CVE-2014-3194).
func (r *Registry) checkRace(ev browser.TraceEvent) {
	write := strings.HasPrefix(ev.Detail, "write")
	prev, ok := r.lastBufAccess[ev.Value]
	if ok && prev.threadID != ev.ThreadID && ev.At-prev.at <= raceWindow && (write || prev.write) {
		r.mark(CVE20143194)
	}
	r.lastBufAccess[ev.Value] = bufAccess{threadID: ev.ThreadID, at: ev.At, write: write}
}
