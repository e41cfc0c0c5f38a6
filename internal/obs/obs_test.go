package obs

import (
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"jskernel/internal/sim"
	"jskernel/internal/trace"
	"jskernel/internal/vuln"
)

// nat builds one native-event record the way the defense bridge emits
// them: OpNative with the trace-kind name as the API.
func nat(seq uint64, run int, kind, detail string, value, aux int64) trace.Record {
	return trace.Record{
		Seq:    seq,
		Run:    run,
		Op:     trace.OpNative,
		API:    kind,
		Reason: detail,
		Value:  value,
		Aux:    aux,
	}
}

// collect feeds records through a fresh Collector's Observe.
func collect(recs ...trace.Record) *Collector {
	c := NewCollector()
	for _, r := range recs {
		c.Observe(r)
	}
	return c
}

// TestCollectorGroupsByRun: the Collector keeps each run's measurement
// events apart, in emission order and run-length coded: consecutive
// kept events of one run that code the same event (kind, frame detail
// and aux) share an entry, whatever other runs and dropped records
// arrive between them.
func TestCollectorGroupsByRun(t *testing.T) {
	c := collect(
		nat(1, 1, "timer-fired", "", 1, 0),
		nat(2, 2, "clock-read", "", 1, 42),
		nat(3, 1, "message-callback", "", 1, 0),
		// Non-native and unknown-kind records are dropped.
		trace.Record{Seq: 4, Run: 1, Op: trace.OpEnqueue, API: "setTimeout"},
		nat(5, 1, "no-such-kind", "", 1, 0),
		nat(6, 3, "no-such-kind", "", 1, 0),
		// Frame ticks of every detail stay in the sequence (loopscan's
		// probe-adjacency test reads them), with the details the
		// frame-clock extractors count coded.
		nat(7, 2, "frame-tick", "raf", 1, 7),
		nat(8, 2, "frame-tick", "animation", 1, 8),
		nat(9, 2, "frame-tick", "cue", 1, 9),
		nat(10, 2, "load-done", "image", 1, 0),
		// Repeats extend the run's last entry, across another run's
		// record and a dropped one.
		nat(11, 1, "message-callback", "", 1, 0),
		nat(12, 2, "clock-read", "", 1, 42),
		nat(13, 1, "message-callback", "", 2, 0),
		nat(14, 1, "message-callback", "", 1, 0),
		// The same kind with another aux or frame detail starts a new
		// entry.
		nat(15, 2, "load-done", "script", 1, 0),
		nat(16, 2, "frame-tick", "cue", 1, 9),
		nat(17, 2, "frame-tick", "animation", 1, 9),
		nat(18, 2, "frame-tick", "animation", 1, 9),
		nat(19, 2, "frame-tick", "animation", 1, 10),
	)
	r1 := c.Measurements(1)
	if want := []Measurement{{kind: mTimer, n: 1}, {kind: mMessage, n: 3}}; !reflect.DeepEqual(r1, want) {
		t.Fatalf("run 1 events = %+v, want the timer then three message callbacks", r1)
	}
	r2 := c.Measurements(2)
	want := []Measurement{
		{kind: mClock, n: 1, aux: 42},
		{kind: mFrame, frame: frameOther, n: 1, aux: 7},
		{kind: mFrame, frame: frameAnimation, n: 1, aux: 8},
		{kind: mFrame, frame: frameCue, n: 1, aux: 9},
		{kind: mLoad, n: 1},
		{kind: mClock, n: 1, aux: 42},
		{kind: mLoad, n: 1},
		{kind: mFrame, frame: frameCue, n: 1, aux: 9},
		{kind: mFrame, frame: frameAnimation, n: 2, aux: 9},
		{kind: mFrame, frame: frameAnimation, n: 1, aux: 10},
	}
	if !reflect.DeepEqual(r2, want) {
		t.Fatalf("run 2 events = %+v, want %+v", r2, want)
	}
	if r3 := c.Measurements(3); r3 != nil {
		t.Fatalf("run 3 kept %+v from records that are all dropped", r3)
	}
	if size := unsafe.Sizeof(Measurement{}); size != 16 {
		t.Fatalf("Measurement is %d bytes, want 16", size)
	}
}

// TestCollectorObserveAllocs pins the Collector's drop path: a record
// that is not a measurement event costs no allocation.
func TestCollectorObserveAllocs(t *testing.T) {
	c := collect(nat(1, 1, "timer-fired", "", 1, 0))
	for _, tc := range []struct {
		name string
		r    trace.Record
	}{
		{"worker token", nat(2, 1, "message-callback", "", 2, 0)},
		{"interval timer", nat(3, 1, "timer-fired", "interval", 1, 0)},
		{"date read", nat(4, 1, "clock-read", "date", 1, 0)},
		{"not native", trace.Record{Seq: 5, Run: 1, Op: trace.OpDispatch, API: "setTimeout", Value: 1}},
		{"unknown kind", nat(6, 1, "no-such-kind", "", 1, 0)},
	} {
		if n := testing.AllocsPerRun(100, func() { c.Observe(tc.r) }); n != 0 {
			t.Errorf("%s: Observe allocated %v times per record, want 0", tc.name, n)
		}
	}
	if got := len(c.Measurements(1)); got != 1 {
		t.Fatalf("dropped records were kept: run 1 has %d events, want 1", got)
	}
}

func TestProfilerAttribution(t *testing.T) {
	p := NewProfiler()
	p.Observe(trace.Record{Seq: 1, Run: 1, Op: trace.OpInstall, API: "setTimeout", Reason: "chrome-extension"})
	// Call-level verdict names the rule, then the event enqueues and
	// dispatches 200ns later.
	p.Observe(trace.Record{Seq: 2, Run: 1, Op: trace.OpPolicy, API: "setTimeout", Action: "delay"})
	p.Observe(trace.Record{Seq: 3, Run: 1, Op: trace.OpEnqueue, API: "setTimeout", Scope: 5, Event: 1, VT: 100})
	p.Observe(trace.Record{Seq: 4, Run: 1, Op: trace.OpDispatch, API: "setTimeout", Scope: 5, Event: 1, VT: 300})
	// An event with no preceding call-level verdict falls back to
	// "scheduled".
	p.Observe(trace.Record{Seq: 5, Run: 1, Op: trace.OpEnqueue, API: "postMessage", Scope: 5, Event: 2, VT: 300})
	p.Observe(trace.Record{Seq: 6, Run: 1, Op: trace.OpDispatch, API: "postMessage", Scope: 5, Event: 2, VT: 1300})
	// A shed event never dispatches and is charged nowhere.
	p.Observe(trace.Record{Seq: 7, Run: 1, Op: trace.OpEnqueue, API: "setTimeout", Scope: 5, Event: 3, VT: 400})
	p.Observe(trace.Record{Seq: 8, Run: 1, Op: trace.OpShed, API: "setTimeout", Scope: 5, Event: 3, VT: 400})

	nodes := p.Nodes()
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2: %+v", len(nodes), nodes)
	}
	// Sorted by (run, scope, api, rule): postMessage before setTimeout.
	if nodes[0].API != "postMessage" || nodes[0].Rule != "scheduled" || nodes[0].WaitTotal != 1000 {
		t.Fatalf("node 0 = %+v, want postMessage/scheduled wait 1000", nodes[0])
	}
	if nodes[1].API != "setTimeout" || nodes[1].Rule != "delay" ||
		nodes[1].Count != 1 || nodes[1].WaitTotal != 200 || nodes[1].WaitMax != 200 {
		t.Fatalf("node 1 = %+v, want setTimeout/delay count 1 wait 200", nodes[1])
	}

	rps := p.RunProfiles()
	if len(rps) != 1 {
		t.Fatalf("got %d run profiles, want 1", len(rps))
	}
	rp := rps[0]
	if rp.Policy != "chrome-extension" || rp.Dispatches != 2 || rp.WaitTotal != 1200 || rp.VirtualEnd != sim.Time(1300) {
		t.Fatalf("run profile = %+v", rp)
	}

	var folded strings.Builder
	if err := p.WriteFolded(&folded); err != nil {
		t.Fatal(err)
	}
	want := "run1;scope5;postMessage;scheduled 1000\nrun1;scope5;setTimeout;delay 200\n"
	if folded.String() != want {
		t.Fatalf("folded output:\n%q\nwant:\n%q", folded.String(), want)
	}

	var tree strings.Builder
	if err := p.WriteTree(&tree); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"2 dispatches", "policy=chrome-extension", "scope 5", "setTimeout", "delay"} {
		if !strings.Contains(tree.String(), frag) {
			t.Errorf("tree output missing %q:\n%s", frag, tree.String())
		}
	}
}

func TestDetectorsThresholdsAndOrdering(t *testing.T) {
	cfg := DefaultDetectorConfig()
	d := NewDetectors(cfg)
	seq := uint64(0)
	next := func() uint64 { seq++; return seq }

	// A zero-delay timer chain on token 7 crosses the implicit-clock
	// threshold; the same chain's timers plus explicit clock reads cross
	// the event-loop-probe thresholds too.
	for i := 0; i < cfg.ImplicitClockMin; i++ {
		d.Observe(nat(next(), 1, "timer-fired", "", 7, 0))
	}
	for i := 0; i < cfg.ProbeMinReads; i++ {
		d.Observe(nat(next(), 1, "clock-read", "", 7, 0))
	}
	// One lone message callback stays under every threshold.
	d.Observe(nat(next(), 1, "message-callback", "", 9, 0))
	// A shed registration always signifies.
	d.Observe(trace.Record{Seq: next(), Run: 1, Op: trace.OpShed, Scope: 3, Event: 1})

	sigs := d.Finish()
	if len(sigs) != 3 {
		t.Fatalf("got %d signatures, want 3: %+v", len(sigs), sigs)
	}
	// Sorted by (run, detector, subject id).
	if sigs[0].Detector != DetectEventLoopProbe || sigs[0].SubjectID != 7 || sigs[0].Count != cfg.ProbeMinReads {
		t.Fatalf("sig 0 = %+v", sigs[0])
	}
	if sigs[1].Detector != DetectImplicitClockTimer || sigs[1].SubjectID != 7 || sigs[1].Count != cfg.ImplicitClockMin {
		t.Fatalf("sig 1 = %+v", sigs[1])
	}
	if len(sigs[1].Evidence) != cfg.EvidenceCap || sigs[1].Evidence[0] != 1 {
		t.Fatalf("evidence = %v, want first %d seqs", sigs[1].Evidence, cfg.EvidenceCap)
	}
	if sigs[2].Detector != DetectQueueShed || sigs[2].Subject != "kernel-scope" || sigs[2].SubjectID != 3 {
		t.Fatalf("sig 2 = %+v", sigs[2])
	}
}

func TestMirrorExploited(t *testing.T) {
	recs := []trace.Record{
		{Seq: 10, Run: 1, Op: trace.OpNative, API: "worker-terminated", WorkerID: 1, Reason: "pending-fetch"},
		// Another run's events never reach the mirror.
		{Seq: 11, Run: 2, Op: trace.OpNative, API: "fetch-abort", Reason: "orphaned"},
		{Seq: 12, Run: 1, Op: trace.OpNative, API: "fetch-abort", Reason: "orphaned"},
		{Seq: 13, Run: 1, Op: trace.OpNative, API: "fetch-abort", Reason: "orphaned"},
	}
	mirror := func(recs []trace.Record) (bool, []uint64) {
		m := NewCVEMirror(vuln.CVE20185092, 1)
		for _, r := range recs {
			m.Observe(r)
		}
		return m.Exploited()
	}
	hit, evidence := mirror(recs)
	if !hit {
		t.Fatal("orphaned abort after termination should mirror CVE-2018-5092")
	}
	if !reflect.DeepEqual(evidence, []uint64{12}) {
		t.Fatalf("evidence = %v, want [12]", evidence)
	}
	// A clean abort never flips the mirror.
	hit, evidence = mirror(recs[:2])
	if hit || evidence != nil {
		t.Fatalf("termination alone mirrored exploited (evidence %v)", evidence)
	}
}

// clockBits encodes a performance.now value the way the browser's
// observability wrapper stores it in Aux.
func clockBits(v float64) int64 { return int64(math.Float64bits(v)) }

func TestExtractSync(t *testing.T) {
	recs := []trace.Record{
		// Pre-warmup noise: a worker-side message (token 2) and an
		// interval fire are dropped by the Collector.
		nat(1, 1, "message-callback", "", 2, 0),
		nat(2, 1, "timer-fired", "interval", 1, 0),
		// Warmup timer, then the measurement: start read, op, end read,
		// three worker ticks, closing zero-delay timer.
		nat(3, 1, "timer-fired", "", 1, int64(60*sim.Millisecond)),
		nat(4, 1, "clock-read", "", 1, clockBits(100)),
		nat(5, 1, "clock-read", "", 1, clockBits(103.5)),
		nat(6, 1, "message-callback", "", 1, 0),
		nat(7, 1, "message-callback", "", 1, 0),
		nat(8, 1, "message-callback", "", 1, 0),
		nat(9, 1, "timer-fired", "", 1, 0),
	}
	events := collect(recs...).Measurements(1)
	// The worker message and interval fire are dropped, and the three
	// worker ticks share one entry: 7 events in 5 entries.
	wantEvents := []Measurement{
		{kind: mTimer, n: 1, aux: int64(60 * sim.Millisecond)},
		{kind: mClock, n: 1, aux: clockBits(100)},
		{kind: mClock, n: 1, aux: clockBits(103.5)},
		{kind: mMessage, n: 3},
		{kind: mTimer, n: 1},
	}
	if !reflect.DeepEqual(events, wantEvents) {
		t.Fatalf("Collector kept %+v, want %+v", events, wantEvents)
	}
	got := ExtractReadings("history-sniffing", events)
	want := map[string]float64{"worker-ticks": 3, "perf-now": 3.5}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ExtractReadings = %v, want %v", got, want)
	}
	// Without the closing timer the measurement never completed.
	if got := ExtractReadings("history-sniffing", collect(recs[:8]...).Measurements(1)); got != nil {
		t.Fatalf("incomplete run extracted %v, want nil", got)
	}
	// A repeated start read is also the end read: the delta is zero.
	repeated := append(append([]trace.Record{}, recs[:4]...), recs[3])
	repeated = append(repeated, recs[5:]...)
	if got := ExtractReadings("history-sniffing", collect(repeated...).Measurements(1)); !reflect.DeepEqual(got, map[string]float64{"worker-ticks": 3, "perf-now": 0}) {
		t.Fatalf("repeated start read extracted %v, want 3 worker ticks and a zero delta", got)
	}
	// Unknown attacks have no shape.
	if got := ExtractReadings("no-such-attack", events); got != nil {
		t.Fatalf("unknown attack extracted %v, want nil", got)
	}
}

func TestExtractEdgeReplaysEveryRead(t *testing.T) {
	mk := func(vals ...float64) []Measurement {
		recs := make([]trace.Record, len(vals))
		for i, v := range vals {
			recs[i] = nat(uint64(i+1), 1, "clock-read", "", 1, clockBits(v))
		}
		return collect(recs...).Measurements(1)
	}
	// start=5, two aligned reads, then the edge: the first 6 breaks the
	// align loop, the second becomes cur, the third is one pad iteration,
	// and 7 exits — every read consumed.
	got := ExtractReadings("clock-edge", mk(5, 5, 5, 6, 6, 6, 7))
	want := map[string]float64{"edge-pad": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("edge-pad = %v, want %v", got, want)
	}
	// Leftover reads mean the stream is not a clock-edge measurement.
	if got := ExtractReadings("clock-edge", mk(5, 5, 6, 6, 7, 7)); got != nil {
		t.Fatalf("stream with leftover reads extracted %v, want nil", got)
	}
}

func TestJudgeTiming(t *testing.T) {
	mkRep := func(a, b float64) CellReadings {
		return CellReadings{Variants: [2]map[string]float64{
			{"worker-ticks": a, "_tick-total": 999},
			{"worker-ticks": b},
		}}
	}
	// Widely separated variants: the channel leaks, the defense failed.
	leakReps := []CellReadings{mkRep(10, 100), mkRep(11, 101), mkRep(10, 99)}
	verdicts, defended := JudgeTiming(leakReps)
	if defended {
		t.Fatal("separated variants judged defended")
	}
	if len(verdicts) != 1 || verdicts[0].Channel != "worker-ticks" || !verdicts[0].Leaks {
		t.Fatalf("verdicts = %+v", verdicts)
	}
	// "_"-prefixed channels are diagnostic-only and never judged.
	for _, v := range verdicts {
		if strings.HasPrefix(v.Channel, "_") {
			t.Fatalf("underscore channel judged: %+v", v)
		}
	}
	// Identical variants: no distinguishable channel, defense held.
	sameReps := []CellReadings{mkRep(10, 10), mkRep(11, 11), mkRep(10, 10)}
	if _, defended := JudgeTiming(sameReps); !defended {
		t.Fatal("identical variants judged undefended")
	}
	// A rep whose reconstruction failed (nil variant) contributes nothing.
	failed := append(leakReps, CellReadings{})
	if _, defended := JudgeTiming(failed); defended {
		t.Fatal("nil-variant rep flipped the verdict")
	}
}

// TestChannelVerdictJSONRoundTrip: every effect size MarshalJSON writes —
// finite as a number, non-finite as a string — decodes back to itself.
func TestChannelVerdictJSONRoundTrip(t *testing.T) {
	for _, d := range []float64{1.25, math.Inf(1), math.Inf(-1), math.NaN()} {
		in := ChannelVerdict{Channel: "loop", MeanA: 1.5, MeanB: 2, CohensD: d, Leaks: true}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %v: %v", d, err)
		}
		var out ChannelVerdict
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		same := out.CohensD == d || (math.IsNaN(d) && math.IsNaN(out.CohensD))
		out.CohensD, in.CohensD = 0, 0
		if !same || out != in {
			t.Fatalf("round trip of %s gave %+v (cohens_d %v)", b, out, d)
		}
	}
	var v ChannelVerdict
	if err := json.Unmarshal([]byte(`{"cohens_d":"big"}`), &v); err == nil {
		t.Fatal("an unknown cohens_d string decoded without error")
	}
}
