// Package obs is the kernel's streaming observability layer: the
// consumers that watch the deterministic trace stream while it is being
// emitted, instead of post-processing a buffered session.
//
// Three engines attach to a trace.Session through the fan-out Sink seam:
//
//   - the virtual-time Profiler (profiler.go) attributes dispatch
//     latency and simulated time to (run, scope, API, policy rule),
//     emitting a pprof-style tree and collapsed-stack flamegraph text;
//   - the online forensics Detectors (detect.go) flag web-concurrency
//     attack signatures — implicit-clock loops, event-loop probing,
//     queue-contention bursts — as structured findings with event-ID
//     evidence chains;
//   - the telemetry report (report.go) joins profiler, detectors and the
//     session's metrics registry into machine-readable JSON plus a
//     compact text summary.
//
// Everything here consumes only the stamped record stream, so outputs
// are byte-identical across reruns and across parallel widths: parallel
// cells trace into private sessions that are absorbed into the parent in
// cell-index order, and Absorb hands each part's records, in order, to
// the parent's sinks (the part's metrics registry is folded in whole).
//
// The forensics layer additionally reconstructs the paper's attack
// measurements from the browser's observability events (extract.go):
// given only the measurement events a Collector keeps from a run's
// native stream, it re-derives the exact per-channel readings the attack
// harness reported and re-judges the leak with the same statistics —
// which is what lets the golden forensics test demand bit-exact
// agreement with Table I's verdicts. A CVEMirror re-judges a CVE row the
// same way, feeding the native stream to a vulnerability registry as it
// passes.
//
// A measurement loop costs the plane no garbage per iteration. The
// browser's setTimeout, setInterval and requestAnimationFrame obs
// wrappers come from a per-browser free list, and a one-shot wrapper
// goes back on it as it fires, before the user callback runs, so a tick
// loop that re-registers reuses one wrapper. The Collector keeps its
// stream run-length coded: consecutive identical events share one
// counted entry, so a tick loop or a clock-read loop is one entry.
package obs

import (
	"math"

	"jskernel/internal/browser"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// Collector is a Sink that keeps, per run and in emission order, the
// measurement events the forensics extractors replay (extract.go): the
// main window's plain timer fires and performance.now reads, and every
// message callback, frame tick and load completion it sees. Worker-side
// events, interval timers, Date.now reads and every other record are
// dropped as they arrive. A kept event holds only what the extractors
// read, and consecutive identical events share one entry, a 16-byte
// Measurement with no pointers that counts them: a run's tick loop or
// clock-read loop costs one entry, not one per event.
type Collector struct {
	byRun map[int]*[]Measurement
	run   int
	cur   *[]Measurement // the last kept event's run
}

var _ trace.Sink = (*Collector)(nil)

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byRun: make(map[int]*[]Measurement)}
}

// Observe keeps r when it is a measurement event.
func (c *Collector) Observe(r trace.Record) {
	m, ok := measurementOf(&r)
	if !ok {
		return
	}
	if c.cur == nil || c.run != r.Run {
		c.cur = c.byRun[r.Run]
		if c.cur == nil {
			c.cur = new([]Measurement)
			c.byRun[r.Run] = c.cur
		}
		c.run = r.Run
	}
	ms := *c.cur
	if k := len(ms) - 1; k >= 0 && ms[k].sameEvent(m) && ms[k].n < math.MaxUint32 {
		ms[k].n++
		return
	}
	*c.cur = append(ms, m)
}

// Measurements returns one run's measurement events in emission order,
// run-length coded.
func (c *Collector) Measurements(run int) []Measurement {
	if ms := c.byRun[run]; ms != nil {
		return *ms
	}
	return nil
}

// CVEMirror is a Sink that replays one run's native events into a fresh
// vulnerability registry as they are emitted, and reports whether the
// CVE's triggering sequence appears, citing the sequence number of the
// record that flipped the registry as evidence.
//
// Because the defense layer bridges every native trace event into the
// session before any other consumer sees it, and the registry's
// detectors read only fields the bridge preserves, this mirror reaches
// exactly the same verdict as the registry that was attached to the
// live environment.
type CVEMirror struct {
	cve      vuln.CVE
	run      int
	reg      *vuln.Registry
	evidence []uint64
}

var _ trace.Sink = (*CVEMirror)(nil)

// NewCVEMirror returns a mirror of cve over the given run's records.
func NewCVEMirror(cve vuln.CVE, run int) *CVEMirror {
	return &CVEMirror{cve: cve, run: run, reg: vuln.NewRegistry(cve)}
}

// Observe feeds one native record of the mirrored run to the registry,
// until the registry flips; records of unknown kind are dropped, as the
// registry has no state machine for them.
func (m *CVEMirror) Observe(r trace.Record) {
	if m.evidence != nil || r.Run != m.run || r.Op != trace.OpNative {
		return
	}
	kind, ok := browser.KindByName(r.API)
	if !ok {
		return
	}
	m.reg.Trace(browser.TraceEvent{
		Kind:     kind,
		At:       r.VT,
		ThreadID: r.Thread,
		WorkerID: r.WorkerID,
		URL:      r.URL,
		Detail:   r.Reason,
		Value:    r.Value,
		Aux:      r.Aux,
	})
	if m.reg.Exploited(m.cve) {
		m.evidence = []uint64{r.Seq}
	}
}

// Exploited reports whether the mirrored run reached the CVE's trigger,
// with the evidence chain: the Seq of the record that flipped it.
func (m *CVEMirror) Exploited() (bool, []uint64) {
	return m.evidence != nil, m.evidence
}
