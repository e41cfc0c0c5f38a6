package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"

	"jskernel/internal/sim"
)

// latencyBuckets is the number of power-of-two histogram buckets; bucket
// i counts dispatch latencies in [2^i, 2^(i+1)) virtual nanoseconds
// (bucket 0 additionally absorbs zero-latency dispatches).
const latencyBuckets = 48

// Histogram is a fixed power-of-two histogram over virtual durations.
type Histogram struct {
	Counts [latencyBuckets]uint64
	Total  uint64
	Sum    sim.Duration
	Max    sim.Duration
}

// Observe folds one duration into the histogram.
func (h *Histogram) Observe(d sim.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	if d > 0 {
		i = bits.Len64(uint64(d)) - 1
		if i >= latencyBuckets {
			i = latencyBuckets - 1
		}
	}
	h.Counts[i]++
	h.Total++
	h.Sum += d
	if d > h.Max {
		h.Max = d
	}
}

// Merge folds another histogram's observations into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.Counts {
		h.Counts[i] += c
	}
	h.Total += o.Total
	h.Sum += o.Sum
	if o.Max > h.Max {
		h.Max = o.Max
	}
}

// Mean returns the mean observed duration.
func (h *Histogram) Mean() sim.Duration {
	if h.Total == 0 {
		return 0
	}
	return h.Sum / sim.Duration(h.Total)
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) from
// the bucket boundaries.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.Total == 0 {
		return 0
	}
	target := uint64(q * float64(h.Total))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range h.Counts {
		seen += c
		if seen >= target {
			// Upper edge of bucket i.
			return sim.Duration(uint64(1) << uint(i+1))
		}
	}
	return h.Max
}

// Metrics is the per-session metrics registry the kernel feeds while
// tracing is enabled. Counter fields are exported for direct assertion
// in tests; maps must be read through the sorted accessors so consumers
// stay deterministic.
type Metrics struct {
	// Lifecycle counters.
	Installs    uint64
	Enqueued    uint64
	Confirmed   uint64
	Dispatched  uint64
	Shed        uint64
	Cancelled   uint64
	Expired     uint64
	Panics      uint64
	Quarantines uint64
	Native      uint64

	// Policy decision counters.
	PolicyDecisions uint64

	// Interposition-overhead totals (kernel-boundary crossings charged to
	// the engine, §III-B).
	InterposeCrossings uint64
	InterposeVirtual   sim.Duration

	// DispatchLatency is the virtual time between an event's enqueue and
	// its dispatch.
	DispatchLatency Histogram

	perAPI    map[string]uint64 // enqueues per API kind
	perAction map[string]uint64 // policy verdicts per action
	scopes    lastKey[int, scopeStat]
}

// scopeStat is one scope's share of the registry.
type scopeStat struct {
	// seen marks a scope some record named; thread is the first thread
	// such a record carried. Scope 0 is never seen.
	seen   bool
	thread int
	// hwm is the scope's queue-depth high-water mark; a scope whose
	// enqueues never raised it above 0 is not listed.
	hwm int
}

func newMetrics() *Metrics {
	return &Metrics{
		perAPI:    make(map[string]uint64),
		perAction: make(map[string]uint64),
	}
}

// observe folds one record into the registry.
func (m *Metrics) observe(r *Record) {
	if r.Scope != 0 {
		if sc := m.scopes.at(r.Scope); !sc.seen {
			sc.seen, sc.thread = true, r.Thread
		}
	}
	switch r.Op {
	case OpInstall:
		m.Installs++
	case OpEnqueue:
		m.Enqueued++
		m.perAPI[r.API]++
		if sc := m.scopes.at(r.Scope); r.Depth > sc.hwm {
			sc.hwm = r.Depth
		}
	case OpPolicy:
		m.PolicyDecisions++
		m.perAction[r.Action]++
	case OpConfirm:
		m.Confirmed++
	case OpDispatch:
		m.Dispatched++
	case OpShed:
		m.Shed++
	case OpCancel:
		m.Cancelled++
	case OpExpire:
		m.Expired++
	case OpPanic:
		m.Panics++
	case OpQuarantine:
		m.Quarantines++
	case OpNative:
		m.Native++
	}
}

func (m *Metrics) observeLatency(d sim.Duration) { m.DispatchLatency.Observe(d) }

// Merge folds another registry into m: counters and the latency
// histogram add, and the per-scope queue high-water marks merge by raw
// scope ID with max semantics (a scope's thread is the first one seen).
// Scope IDs are only unique within one session, so merging many
// sessions keeps one entry per ID ever used — the merged registry
// stays as small as the largest session. The zero Metrics is a valid
// receiver.
func (m *Metrics) Merge(o *Metrics) { m.merge(o, 0) }

// merge is Merge with o's nonzero scope IDs shifted up by scopeBase,
// the remap Session.Absorb applies to a part's records.
func (m *Metrics) merge(o *Metrics, scopeBase int) {
	m.Installs += o.Installs
	m.Enqueued += o.Enqueued
	m.Confirmed += o.Confirmed
	m.Dispatched += o.Dispatched
	m.Shed += o.Shed
	m.Cancelled += o.Cancelled
	m.Expired += o.Expired
	m.Panics += o.Panics
	m.Quarantines += o.Quarantines
	m.Native += o.Native
	m.PolicyDecisions += o.PolicyDecisions
	m.InterposeCrossings += o.InterposeCrossings
	m.InterposeVirtual += o.InterposeVirtual
	m.DispatchLatency.Merge(&o.DispatchLatency)
	if m.perAPI == nil {
		m.perAPI = make(map[string]uint64)
		m.perAction = make(map[string]uint64)
	}
	for k, v := range o.perAPI {
		m.perAPI[k] += v
	}
	for k, v := range o.perAction {
		m.perAction[k] += v
	}
	for s, src := range o.scopes.m {
		if s != 0 {
			s += scopeBase
		}
		sc := m.scopes.slot(s)
		if !sc.seen && src.seen {
			sc.seen, sc.thread = true, src.thread
		}
		if src.hwm > sc.hwm {
			sc.hwm = src.hwm
		}
	}
}

// Count is one (name, count) pair of a sorted counter dump.
type Count struct {
	Name  string `json:"name"`
	Count uint64 `json:"count"`
}

func sortedCounts(in map[string]uint64) []Count {
	keys := make([]string, 0, len(in))
	for k := range in {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]Count, 0, len(keys))
	for _, k := range keys {
		out = append(out, Count{Name: k, Count: in[k]})
	}
	return out
}

// APICounts returns per-API registration counters sorted by API name.
func (m *Metrics) APICounts() []Count { return sortedCounts(m.perAPI) }

// ActionCounts returns policy verdict counters sorted by action name.
func (m *Metrics) ActionCounts() []Count { return sortedCounts(m.perAction) }

// ScopeDepth is one scope's queue-depth high-water mark.
type ScopeDepth struct {
	Scope     int `json:"scope"`
	Thread    int `json:"thread"`
	HighWater int `json:"high_water"`
}

// QueueHighWater returns per-scope queue-depth high-water marks sorted
// by scope ID.
func (m *Metrics) QueueHighWater() []ScopeDepth {
	var out []ScopeDepth
	for s, sc := range m.scopes.m {
		if sc.hwm > 0 {
			out = append(out, ScopeDepth{Scope: s, Thread: sc.thread, HighWater: sc.hwm})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Scope < out[j].Scope })
	return out
}

// histogramBucketJSON is one occupied power-of-two bucket of the
// dispatch-latency histogram; LoNs is the bucket's lower edge in
// virtual nanoseconds.
type histogramBucketJSON struct {
	LoNs  uint64 `json:"lo_ns"`
	Count uint64 `json:"count"`
}

// histogramJSON is the machine-readable dispatch-latency histogram.
type histogramJSON struct {
	Total   uint64                `json:"total"`
	MeanMs  float64               `json:"mean_ms"`
	P50Ms   float64               `json:"p50_ms"`
	P99Ms   float64               `json:"p99_ms"`
	MaxMs   float64               `json:"max_ms"`
	Buckets []histogramBucketJSON `json:"buckets,omitempty"`
}

// metricsJSON is the machine-readable registry dump; maps are exported
// through the sorted accessors so the encoding is deterministic.
type metricsJSON struct {
	Installs           uint64        `json:"installs"`
	Enqueued           uint64        `json:"enqueued"`
	Confirmed          uint64        `json:"confirmed"`
	Dispatched         uint64        `json:"dispatched"`
	Shed               uint64        `json:"shed"`
	Cancelled          uint64        `json:"cancelled"`
	Expired            uint64        `json:"expired"`
	Panics             uint64        `json:"panics"`
	Quarantines        uint64        `json:"quarantines"`
	Native             uint64        `json:"native"`
	PolicyDecisions    uint64        `json:"policy_decisions"`
	InterposeCrossings uint64        `json:"interpose_crossings"`
	InterposeVirtualMs float64       `json:"interpose_virtual_ms"`
	DispatchLatency    histogramJSON `json:"dispatch_latency"`
	APICounts          []Count       `json:"api_counts,omitempty"`
	ActionCounts       []Count       `json:"action_counts,omitempty"`
	QueueHighWater     []ScopeDepth  `json:"queue_high_water,omitempty"`
}

// WriteJSON renders the registry as deterministic indented JSON: all
// map-backed sections go through the sorted accessors and the histogram
// dumps only its occupied buckets.
func (m *Metrics) WriteJSON(w io.Writer) error {
	if m == nil {
		_, err := io.WriteString(w, "null\n")
		return err
	}
	lat := &m.DispatchLatency
	hist := histogramJSON{
		Total:  lat.Total,
		MeanMs: lat.Mean().Milliseconds(),
		P50Ms:  lat.Quantile(0.50).Milliseconds(),
		P99Ms:  lat.Quantile(0.99).Milliseconds(),
		MaxMs:  lat.Max.Milliseconds(),
	}
	for i, c := range lat.Counts {
		if c == 0 {
			continue
		}
		lo := uint64(0)
		if i > 0 {
			lo = uint64(1) << uint(i)
		}
		hist.Buckets = append(hist.Buckets, histogramBucketJSON{LoNs: lo, Count: c})
	}
	out := metricsJSON{
		Installs:           m.Installs,
		Enqueued:           m.Enqueued,
		Confirmed:          m.Confirmed,
		Dispatched:         m.Dispatched,
		Shed:               m.Shed,
		Cancelled:          m.Cancelled,
		Expired:            m.Expired,
		Panics:             m.Panics,
		Quarantines:        m.Quarantines,
		Native:             m.Native,
		PolicyDecisions:    m.PolicyDecisions,
		InterposeCrossings: m.InterposeCrossings,
		InterposeVirtualMs: m.InterposeVirtual.Milliseconds(),
		DispatchLatency:    hist,
		APICounts:          m.APICounts(),
		ActionCounts:       m.ActionCounts(),
		QueueHighWater:     m.QueueHighWater(),
	}
	enc, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	enc = append(enc, '\n')
	_, err = w.Write(enc)
	return err
}

// WriteSummary renders a deterministic human-readable metrics summary.
func (m *Metrics) WriteSummary(w io.Writer) error {
	if m == nil {
		_, err := fmt.Fprintln(w, "trace metrics: (no session)")
		return err
	}
	p := func(format string, args ...any) (err error) {
		_, err = fmt.Fprintf(w, format, args...)
		return err
	}
	if err := p("trace metrics:\n"); err != nil {
		return err
	}
	if err := p("  scopes installed      %d\n", m.Installs); err != nil {
		return err
	}
	if err := p("  events: enqueued=%d dispatched=%d shed=%d cancelled=%d expired=%d confirmed=%d\n",
		m.Enqueued, m.Dispatched, m.Shed, m.Cancelled, m.Expired, m.Confirmed); err != nil {
		return err
	}
	if err := p("  survival: panics=%d quarantines=%d\n", m.Panics, m.Quarantines); err != nil {
		return err
	}
	if err := p("  policy decisions      %d\n", m.PolicyDecisions); err != nil {
		return err
	}
	for _, c := range m.ActionCounts() {
		if err := p("    action %-12s %d\n", c.Name, c.Count); err != nil {
			return err
		}
	}
	if err := p("  interposition         %d crossings, %s of virtual overhead\n",
		m.InterposeCrossings, fmtVT(m.InterposeVirtual)); err != nil {
		return err
	}
	lat := &m.DispatchLatency
	if err := p("  dispatch latency      n=%d mean=%s p50<=%s p99<=%s max=%s\n",
		lat.Total, fmtVT(lat.Mean()), fmtVT(lat.Quantile(0.50)), fmtVT(lat.Quantile(0.99)), fmtVT(lat.Max)); err != nil {
		return err
	}
	for _, d := range m.QueueHighWater() {
		if err := p("    scope %-3d thread %-3d queue high-water %d\n", d.Scope, d.Thread, d.HighWater); err != nil {
			return err
		}
	}
	if err := p("  native records        %d\n", m.Native); err != nil {
		return err
	}
	top := m.APICounts()
	for _, c := range top {
		if err := p("    api %-16s %d\n", c.Name, c.Count); err != nil {
			return err
		}
	}
	return nil
}
