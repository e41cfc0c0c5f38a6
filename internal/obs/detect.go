package obs

import (
	"sort"

	"jskernel/internal/browser"
	"jskernel/internal/trace"
)

// Online forensics detectors: Sinks that watch the stream for the
// construction patterns every web concurrency attack in the paper
// shares, independent of whether the leak ultimately succeeded.
//
//   - implicit-clock-timer: a zero-delay setTimeout chain (Listing 1's
//     tick loop / "setTimeout as an implicit clock", §II-A1) — the same
//     scope's callbacks firing with requested delay 0 above a cadence
//     threshold.
//   - implicit-clock-postmessage: a self-postMessage / worker-spray
//     message loop (Listing 1's spraying worker) — message-callback
//     entries into one scope above the threshold.
//   - event-loop-probe: Loophole-style event-loop monitoring [11] — a
//     scope interleaving repeated timer callbacks with repeated
//     explicit clock reads, sampling the loop's availability.
//   - queue-burst / queue-shed: queue-contention signatures at the
//     kernel layer — a scope driving its event queue past the burst
//     depth, or having registrations shed at the queue bound.
//
// Detection is purely incremental: counters keyed by (run, subject)
// advance per record, and Finish renders the ones above threshold into
// sorted, evidence-carrying signatures. Determinism: map iteration only
// happens in Finish over collected-and-sorted keys.

// Detector names.
const (
	DetectImplicitClockTimer = "implicit-clock-timer"
	DetectImplicitClockPost  = "implicit-clock-postmessage"
	DetectEventLoopProbe     = "event-loop-probe"
	DetectQueueBurst         = "queue-burst"
	DetectQueueShed          = "queue-shed"
)

// DetectorConfig tunes the detection thresholds.
type DetectorConfig struct {
	// ImplicitClockMin is the minimum callback cadence (events per run
	// and scope) before a timer or message loop counts as an implicit
	// clock. The harnesses' 60ms warmup alone crosses it comfortably;
	// ordinary page scripts do not.
	ImplicitClockMin int
	// ProbeMinTimers and ProbeMinReads gate the event-loop-probe
	// detector: a scope must both re-arm timers and read the explicit
	// clock this many times.
	ProbeMinTimers int
	ProbeMinReads  int
	// QueueBurstDepth is the queue depth at which an enqueue or
	// dispatch record counts as contention.
	QueueBurstDepth int
	// EvidenceCap bounds the evidence chain kept per signature.
	EvidenceCap int
}

// DefaultDetectorConfig returns the thresholds used by the CLI and the
// golden forensics tests.
func DefaultDetectorConfig() DetectorConfig {
	return DetectorConfig{
		ImplicitClockMin: 32,
		ProbeMinTimers:   10,
		ProbeMinReads:    10,
		QueueBurstDepth:  48,
		EvidenceCap:      8,
	}
}

// Signature is one structured finding.
type Signature struct {
	// Detector names the signature kind (Detect* constants).
	Detector string `json:"detector"`
	// Run is the environment generation the signature was observed in.
	Run int `json:"run"`
	// Subject says what SubjectID identifies: "scope-token" for
	// browser-layer subjects, "kernel-scope" for kernel-layer ones.
	Subject string `json:"subject"`
	// SubjectID is the scope token or kernel scope ID.
	SubjectID int64 `json:"subject_id"`
	// Count is the number of matching events observed.
	Count int `json:"count"`
	// Evidence lists the first observed record sequence numbers
	// (capped at EvidenceCap).
	Evidence []uint64 `json:"evidence"`
}

// tally is one counter with its evidence chain.
type tally struct {
	count    int
	evidence []uint64
}

// tokenTallies are the browser-layer counters of one scope token.
type tokenTallies struct {
	zeroTimer tally // zero-delay timer callbacks
	msgCB     tally // message callbacks
	anyTimer  tally // all timer callbacks
	clockRead tally // explicit clock reads
}

// scopeTallies are the kernel-layer counters of one kernel scope.
type scopeTallies struct {
	burst tally // deep-queue records
	shed  tally // shed registrations
}

// subject is one counted subject of a run: a scope token or a kernel
// scope ID, with its counters.
type subject[T any] struct {
	id int64
	t  T
}

// detRun is the detectors' state for one run. A run has a handful of
// scope tokens and kernel scopes, so they are found by a scan.
type detRun struct {
	run    int
	tokens []*subject[tokenTallies]
	scopes []*subject[scopeTallies]
}

// find returns the subject id of subs, appending a zero one first.
func find[T any](subs *[]*subject[T], id int64) *T {
	for _, s := range *subs {
		if s.id == id {
			return &s.t
		}
	}
	s := &subject[T]{id: id}
	*subs = append(*subs, s)
	return &s.t
}

// Detectors is the Sink running every detector over one stream.
type Detectors struct {
	cfg  DetectorConfig
	runs map[int]*detRun
	cur  *detRun // the last counted record's run
}

var _ trace.Sink = (*Detectors)(nil)

// NewDetectors returns detectors with the given thresholds.
func NewDetectors(cfg DetectorConfig) *Detectors {
	if cfg.EvidenceCap <= 0 {
		cfg.EvidenceCap = DefaultDetectorConfig().EvidenceCap
	}
	return &Detectors{cfg: cfg, runs: make(map[int]*detRun)}
}

// run returns run's state, found once per change of run.
func (d *Detectors) run(run int) *detRun {
	if d.cur != nil && d.cur.run == run {
		return d.cur
	}
	dr := d.runs[run]
	if dr == nil {
		dr = &detRun{run: run}
		d.runs[run] = dr
	}
	d.cur = dr
	return dr
}

// bump advances one counter, retaining early evidence.
func (d *Detectors) bump(t *tally, seq uint64) {
	t.count++
	if len(t.evidence) < d.cfg.EvidenceCap {
		if t.evidence == nil {
			t.evidence = make([]uint64, 0, d.cfg.EvidenceCap)
		}
		t.evidence = append(t.evidence, seq)
	}
}

// Observe folds one stamped record into the detectors.
func (d *Detectors) Observe(r trace.Record) {
	switch r.Op {
	case trace.OpNative:
		kind, ok := browser.KindByName(r.API)
		if !ok {
			return
		}
		switch kind {
		case browser.TraceTimerFired:
			t := find(&d.run(r.Run).tokens, r.Value)
			d.bump(&t.anyTimer, r.Seq)
			if r.Aux == 0 {
				d.bump(&t.zeroTimer, r.Seq)
			}
		case browser.TraceMessageCallback:
			d.bump(&find(&d.run(r.Run).tokens, r.Value).msgCB, r.Seq)
		case browser.TraceClockRead:
			d.bump(&find(&d.run(r.Run).tokens, r.Value).clockRead, r.Seq)
		}
	case trace.OpShed:
		d.bump(&find(&d.run(r.Run).scopes, int64(r.Scope)).shed, r.Seq)
	case trace.OpEnqueue, trace.OpDispatch:
		if r.Depth >= d.cfg.QueueBurstDepth && r.Scope != 0 {
			d.bump(&find(&d.run(r.Run).scopes, int64(r.Scope)).burst, r.Seq)
		}
	}
}

// FragmentCount is one detector's raw tally across every subject —
// below-threshold evidence included. Per-request forensics (Finish)
// only reports counters that crossed their thresholds; a probe split
// across requests stays below every one of them by design, so the
// cross-request ledger consumes these raw fragments instead and applies
// its own accumulation thresholds.
type FragmentCount struct {
	// Detector names the fragment kind (Detect* constants).
	Detector string `json:"detector"`
	// Count is the total matching events across runs and subjects.
	Count int `json:"count"`
}

// Fragments sums every counter per detector, sorted by detector name.
func (d *Detectors) Fragments() []FragmentCount {
	var zero, msg, read, burst, shed int
	for _, dr := range d.runs {
		for _, s := range dr.tokens {
			zero += s.t.zeroTimer.count
			msg += s.t.msgCB.count
			read += s.t.clockRead.count
		}
		for _, s := range dr.scopes {
			burst += s.t.burst.count
			shed += s.t.shed.count
		}
	}
	out := []FragmentCount{
		{Detector: DetectImplicitClockTimer, Count: zero},
		{Detector: DetectImplicitClockPost, Count: msg},
		{Detector: DetectEventLoopProbe, Count: read},
		{Detector: DetectQueueBurst, Count: burst},
		{Detector: DetectQueueShed, Count: shed},
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Detector < out[j].Detector })
	filtered := out[:0]
	for _, f := range out {
		if f.Count > 0 {
			filtered = append(filtered, f)
		}
	}
	return filtered
}

// Finish renders every over-threshold counter into a signature, sorted
// by (run, detector, subject).
func (d *Detectors) Finish() []Signature {
	var sigs []Signature
	add := func(detector, subject string, run int, id int64, t *tally, min int) {
		if t.count == 0 || t.count < min {
			return
		}
		sigs = append(sigs, Signature{
			Detector:  detector,
			Run:       run,
			Subject:   subject,
			SubjectID: id,
			Count:     t.count,
			Evidence:  append([]uint64(nil), t.evidence...),
		})
	}
	for _, dr := range d.runs {
		for _, s := range dr.tokens {
			add(DetectImplicitClockTimer, "scope-token", dr.run, s.id, &s.t.zeroTimer, d.cfg.ImplicitClockMin)
			add(DetectImplicitClockPost, "scope-token", dr.run, s.id, &s.t.msgCB, d.cfg.ImplicitClockMin)
			if s.t.anyTimer.count >= d.cfg.ProbeMinTimers {
				add(DetectEventLoopProbe, "scope-token", dr.run, s.id, &s.t.clockRead, d.cfg.ProbeMinReads)
			}
		}
		for _, s := range dr.scopes {
			add(DetectQueueBurst, "kernel-scope", dr.run, s.id, &s.t.burst, 1)
			add(DetectQueueShed, "kernel-scope", dr.run, s.id, &s.t.shed, 1)
		}
	}
	// Each (run, detector, subject) has at most one signature, so the
	// order is total.
	sort.Slice(sigs, func(i, j int) bool {
		a, b := sigs[i], sigs[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		if a.Detector != b.Detector {
			return a.Detector < b.Detector
		}
		return a.SubjectID < b.SubjectID
	})
	return sigs
}
