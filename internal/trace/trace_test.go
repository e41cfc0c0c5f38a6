package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"jskernel/internal/sim"
)

// emitLifecycle pushes one full policy→enqueue→confirm→dispatch cycle
// for the given event into s.
func emitLifecycle(s *Session, scope int, ev uint64, api string, enqAt, dispAt sim.Time) {
	s.Emit(Record{VT: enqAt, Thread: 1, Scope: scope, Op: OpPolicy, API: api, Event: ev, Action: "schedule"})
	s.Emit(Record{VT: enqAt, Thread: 1, Scope: scope, Op: OpEnqueue, API: api, Event: ev, Predicted: dispAt, Depth: 1})
	s.Emit(Record{VT: enqAt, Thread: 1, Scope: scope, Op: OpConfirm, API: api, Event: ev})
	s.Emit(Record{VT: dispAt, Thread: 1, Scope: scope, Op: OpDispatch, API: api, Event: ev})
}

func TestNilSessionIsSafe(t *testing.T) {
	var s *Session
	s.Emit(Record{Op: OpEnqueue, Event: 1, Scope: 1})
	s.CountInterpose(50 * sim.Nanosecond)
	s.Close()
	if s.Len() != 0 || s.Records() != nil || s.Metrics() != nil || s.Open() != 0 || s.Closed() {
		t.Fatalf("nil session should behave as an empty no-op sink")
	}
}

func TestSessionLifecycleMetricsAndValidate(t *testing.T) {
	s := NewSession()
	sc := s.NextScope()
	s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpInstall, API: "window"})
	emitLifecycle(s, sc, 1, "setTimeout", 0, 4*sim.Millisecond)
	emitLifecycle(s, sc, 2, "fetch", 4*sim.Millisecond, 12*sim.Millisecond)
	s.CountInterpose(50 * sim.Nanosecond)
	s.CountInterpose(50 * sim.Nanosecond)

	m := s.Metrics()
	if m.Installs != 1 || m.Enqueued != 2 || m.Confirmed != 2 || m.Dispatched != 2 {
		t.Fatalf("counters: %+v", m)
	}
	if m.PolicyDecisions != 2 {
		t.Fatalf("policy decisions = %d, want 2", m.PolicyDecisions)
	}
	if m.InterposeCrossings != 2 || m.InterposeVirtual != 100*sim.Nanosecond {
		t.Fatalf("interpose: crossings=%d virtual=%v", m.InterposeCrossings, m.InterposeVirtual)
	}
	if m.DispatchLatency.Total != 2 {
		t.Fatalf("latency samples = %d, want 2", m.DispatchLatency.Total)
	}
	if got, want := m.DispatchLatency.Max, 8*sim.Millisecond; got != want {
		t.Fatalf("latency max = %v, want %v", got, want)
	}
	apis := m.APICounts()
	if len(apis) != 2 || apis[0].Name != "fetch" || apis[1].Name != "setTimeout" {
		t.Fatalf("api counts unsorted or wrong: %+v", apis)
	}
	hwm := m.QueueHighWater()
	if len(hwm) != 1 || hwm[0].Scope != sc || hwm[0].HighWater != 1 {
		t.Fatalf("queue high-water: %+v", hwm)
	}
	if s.Open() != 0 {
		t.Fatalf("open events = %d, want 0", s.Open())
	}

	rep, err := Validate(s.Records())
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if rep.Enqueued != 2 || rep.Dispatched != 2 || rep.Open != 0 {
		t.Fatalf("report: %+v", rep)
	}

	var buf bytes.Buffer
	if err := m.WriteSummary(&buf); err != nil {
		t.Fatalf("summary: %v", err)
	}
	if !strings.Contains(buf.String(), "enqueued=2 dispatched=2") {
		t.Fatalf("summary missing lifecycle line:\n%s", buf.String())
	}
}

func TestCloseRetiresOpenEvents(t *testing.T) {
	s := NewSession()
	sc := s.NextScope()
	s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpPolicy, API: "setTimeout", Event: 1, Action: "schedule"})
	s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpEnqueue, API: "setTimeout", Event: 1})
	s.Emit(Record{VT: 2 * sim.Millisecond, Thread: 1, Scope: sc, Op: OpNative, API: "fetch-start"})

	if _, err := Validate(s.Records()); err == nil {
		t.Fatalf("strict validation should reject an unclosed trace with open events")
	}
	sv := NewStreamValidator(true)
	for _, r := range s.Records() {
		sv.Observe(r)
	}
	rep, err := sv.Finish()
	if err != nil {
		t.Fatalf("open-tolerant validate: %v", err)
	}
	if rep.Open != 1 {
		t.Fatalf("open = %d, want 1", rep.Open)
	}

	s.Close()
	if !s.Closed() || s.Open() != 0 {
		t.Fatalf("close did not retire open events")
	}
	recs := s.Records()
	last := recs[len(recs)-1]
	if last.Op != OpCancel || last.Action != "run-end" || last.Event != 1 {
		t.Fatalf("synthetic run-end record wrong: %+v", last)
	}
	if last.VT != 2*sim.Millisecond {
		t.Fatalf("run-end stamped %v, want session max VT %v", last.VT, 2*sim.Millisecond)
	}
	if _, err := Validate(recs); err != nil {
		t.Fatalf("validate closed trace: %v", err)
	}
	n := s.Len()
	s.Close() // idempotent
	if s.Len() != n {
		t.Fatalf("second Close emitted records")
	}
}

// TestValidatorCatchesViolations runs each violation at event ID 1,
// which the validator keeps in its dense per-scope table, and at an ID
// far past it, which goes to the scope's sparse map.
func TestValidatorCatchesViolations(t *testing.T) {
	for _, ev := range []uint64{1, 1 << 40} {
		validatorCases(t, ev)
	}
}

func validatorCases(t *testing.T, ev uint64) {
	base := func() []Record {
		return []Record{
			{Seq: 1, VT: 0, Thread: 1, Scope: 1, Op: OpPolicy, API: "setTimeout", Event: ev, Action: "schedule"},
			{Seq: 2, VT: 0, Thread: 1, Scope: 1, Op: OpEnqueue, API: "setTimeout", Event: ev},
			{Seq: 3, VT: 0, Thread: 1, Scope: 1, Op: OpConfirm, API: "setTimeout", Event: ev},
			{Seq: 4, VT: 4 * sim.Millisecond, Thread: 1, Scope: 1, Op: OpDispatch, API: "setTimeout", Event: ev},
		}
	}

	cases := []struct {
		name   string
		mutate func([]Record) []Record
		want   string
	}{
		{"dispatch without policy", func(r []Record) []Record {
			return []Record{r[1], r[2], r[3]}
		}, "policy decision"},
		{"dispatch without confirm", func(r []Record) []Record {
			return []Record{r[0], r[1], r[3]}
		}, "confirmation"},
		{"double enqueue", func(r []Record) []Record {
			dup := r[1]
			return []Record{r[0], r[1], r[2], dup}
		}, "enqueued twice"},
		{"record after terminal", func(r []Record) []Record {
			late := r[2]
			late.Seq = 5
			late.VT = 5 * sim.Millisecond
			return append(r, late)
		}, "after terminal"},
		{"vt backwards", func(r []Record) []Record {
			r[3].VT = -1
			return r
		}, "virtual time moved backwards"},
		{"seq not increasing", func(r []Record) []Record {
			r[2].Seq = 2
			return r
		}, "sequence"},
		{"terminal for unknown event", func(r []Record) []Record {
			return []Record{{Seq: 1, VT: 0, Thread: 1, Scope: 1, Op: OpCancel, API: "setTimeout", Event: ev + 8}}
		}, "never enqueued"},
	}
	for _, tc := range cases {
		recs := tc.mutate(base())
		// Renumber only where the case doesn't deliberately break Seq.
		if tc.name != "seq not increasing" {
			for i := range recs {
				recs[i].Seq = uint64(i + 1)
			}
		}
		_, err := Validate(recs)
		if err == nil {
			t.Errorf("event %d: %s: validation passed, want failure", ev, tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("event %d: %s: error %q does not mention %q", ev, tc.name, err, tc.want)
		}
	}

	if _, err := Validate(base()); err != nil {
		t.Fatalf("event %d: baseline trace should validate: %v", ev, err)
	}
}

func TestValidatorExemptsNativeFromMonotonicity(t *testing.T) {
	recs := []Record{
		{Seq: 1, VT: 5 * sim.Millisecond, Thread: 1, Op: OpNative, API: "fetch-done"},
		{Seq: 2, VT: 1 * sim.Millisecond, Thread: 1, Op: OpNative, API: "fetch-start"},
	}
	if _, err := Validate(recs); err != nil {
		t.Fatalf("native records must be exempt from per-thread monotonicity: %v", err)
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	h.Observe(0)
	h.Observe(1)
	h.Observe(1000)
	h.Observe(-5) // clamps to zero
	if h.Total != 4 {
		t.Fatalf("total = %d", h.Total)
	}
	if h.Counts[0] != 3 { // 0, 1, clamped -5
		t.Fatalf("bucket 0 = %d, want 3", h.Counts[0])
	}
	if h.Max != 1000 {
		t.Fatalf("max = %v", h.Max)
	}
	if h.Mean() != 1001/4 {
		t.Fatalf("mean = %v", h.Mean())
	}
	if q := h.Quantile(0.5); q > 1024 {
		t.Fatalf("p50 upper bound %v too large", q)
	}
	var empty Histogram
	if empty.Mean() != 0 || empty.Quantile(0.99) != 0 {
		t.Fatalf("empty histogram should report zeros")
	}
}

func TestChromeExportDeterministicAndValid(t *testing.T) {
	s := NewSession()
	sc := s.NextScope()
	s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpInstall, API: "window"})
	emitLifecycle(s, sc, 1, "setTimeout", 0, 4*sim.Millisecond)
	s.Emit(Record{VT: 5 * sim.Millisecond, Thread: 2, Scope: sc, Op: OpNative, API: "fetch-start", URL: "https://a.example/x"})

	var a, b bytes.Buffer
	if err := WriteChrome(&a, s.Records()); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteChrome(&b, s.Records()); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("chrome export is not byte-deterministic")
	}

	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Ts   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			Tid  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("exporter output is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var sawX, sawMeta bool
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "X":
			sawX = true
			if e.Name != "setTimeout" || e.Dur != 4000 {
				t.Fatalf("dispatch span wrong: %+v", e)
			}
		case "M":
			sawMeta = true
		}
	}
	if !sawX || !sawMeta {
		t.Fatalf("export missing span or metadata events")
	}
}

func TestWriteTextStableLayout(t *testing.T) {
	s := NewSession()
	sc := s.NextScope()
	emitLifecycle(s, sc, 1, "setTimeout", 0, 4*sim.Millisecond)
	var a, b bytes.Buffer
	if err := WriteText(&a, s.Records()); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := WriteText(&b, s.Records()); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("text export is not byte-deterministic")
	}
	lines := strings.Split(strings.TrimRight(a.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("want 4 lines, got %d:\n%s", len(lines), a.String())
	}
	if !strings.Contains(lines[1], "enqueue") || !strings.Contains(lines[1], "setTimeout") {
		t.Fatalf("enqueue line malformed: %q", lines[1])
	}
	if !strings.Contains(lines[3], "dispatch") {
		t.Fatalf("dispatch line malformed: %q", lines[3])
	}
}

// TestRecordsAcrossChunks: a session retaining several chunks of records
// returns them all in emission order, and a parent absorbs them intact.
// Chunks double from firstChunk to recordChunk, and each is filled to
// its capacity before the next is allocated.
func TestRecordsAcrossChunks(t *testing.T) {
	part := NewSession()
	n := 2*recordChunk + 7
	for i := 0; i < n; i++ {
		part.Emit(Record{Run: 1, Thread: 1, Op: OpNative, API: "tick", Value: int64(i)})
	}
	part.Close()
	want := firstChunk
	for i, c := range part.chunks {
		if cap(c) != want {
			t.Fatalf("chunk %d has capacity %d, want %d", i, cap(c), want)
		}
		if i < len(part.chunks)-1 && len(c) != cap(c) {
			t.Fatalf("chunk %d holds %d of %d records, but a later chunk exists", i, len(c), cap(c))
		}
		want = min(2*want, recordChunk)
	}
	if full := cap(part.chunks[len(part.chunks)-2]); full != recordChunk {
		t.Fatalf("next-to-last chunk has capacity %d, want %d", full, recordChunk)
	}
	recs := part.Records()
	if len(recs) != n {
		t.Fatalf("Records returned %d, want %d", len(recs), n)
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) || r.Value != int64(i) {
			t.Fatalf("record %d = seq %d value %d", i, r.Seq, r.Value)
		}
	}
	parent := NewSession()
	if err := parent.Absorb(part); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	got := parent.Records()
	if len(got) != n || got[n-1].Value != int64(n-1) || got[n-1].Seq != uint64(n) {
		t.Fatalf("parent holds %d records, want %d in order", len(got), n)
	}
}

// TestMetricsMerge: merging registries adds counters, histograms and
// per-API/per-action counts, keeps the per-scope queue high water as a
// max by raw scope ID, and accepts the zero Metrics as a receiver.
func TestMetricsMerge(t *testing.T) {
	session := func(depth int, api string, lat sim.Time) *Metrics {
		s := NewSession()
		sc := s.NextScope()
		s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpInstall, API: "window"})
		s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpPolicy, API: api, Event: 1, Action: "schedule"})
		s.Emit(Record{VT: 0, Thread: 1, Scope: sc, Op: OpEnqueue, API: api, Event: 1, Depth: depth})
		s.Emit(Record{VT: lat, Thread: 1, Scope: sc, Op: OpDispatch, API: api, Event: 1})
		s.CountInterpose(50 * sim.Nanosecond)
		s.Close()
		return s.Metrics()
	}
	a := session(3, "setTimeout", 2*sim.Millisecond)
	b := session(5, "fetch", 9*sim.Millisecond)

	var agg Metrics
	agg.Merge(a)
	agg.Merge(b)
	if agg.Installs != 2 || agg.Enqueued != 2 || agg.Dispatched != 2 || agg.PolicyDecisions != 2 {
		t.Fatalf("counters: %+v", agg)
	}
	if agg.InterposeCrossings != 2 || agg.InterposeVirtual != 100*sim.Nanosecond {
		t.Fatalf("interpose: crossings=%d virtual=%v", agg.InterposeCrossings, agg.InterposeVirtual)
	}
	lat := agg.DispatchLatency
	if lat.Total != 2 || lat.Max != 9*sim.Millisecond || lat.Sum != 11*sim.Millisecond {
		t.Fatalf("latency: total=%d max=%v sum=%v", lat.Total, lat.Max, lat.Sum)
	}
	apis := agg.APICounts()
	if len(apis) != 2 || apis[0] != (Count{"fetch", 1}) || apis[1] != (Count{"setTimeout", 1}) {
		t.Fatalf("api counts: %+v", apis)
	}
	if acts := agg.ActionCounts(); len(acts) != 1 || acts[0] != (Count{"schedule", 2}) {
		t.Fatalf("action counts: %+v", acts)
	}
	// Both sessions allocated scope 1: one entry, the larger depth.
	if hwm := agg.QueueHighWater(); len(hwm) != 1 || hwm[0] != (ScopeDepth{Scope: 1, Thread: 1, HighWater: 5}) {
		t.Fatalf("queue high-water: %+v", hwm)
	}
	// Merging does not alias the source's maps.
	agg.Merge(a)
	if a.APICounts()[0].Count != 1 {
		t.Fatalf("merge wrote through to its source")
	}
}
