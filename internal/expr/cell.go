package expr

import (
	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/hb"
	"jskernel/internal/obs"
	"jskernel/internal/trace"
)

// The cell pipeline. The paper's evaluation is one matrix — Table I's
// attack rows against its defense columns — and every tool here
// evaluates cells of it: Table I itself (and the chaos matrix over it),
// the forensic and race re-judgements, jsk-serve's /v1/eval and
// jsk-race. Each of them describes a cell as a Cell, says which
// instruments to attach, and calls RunCell, which owns the cell's one
// trace session. Where a matrix cell's seed comes from is decided once,
// in newTable1Grid.

// Cell is one evaluation of a Table I coordinate: a timing or CVE row
// under one defense.
type Cell struct {
	// Timing or CVE is the row; exactly one is set.
	Timing *attack.TimingAttack
	CVE    *attack.CVEAttack
	// Defense is the column, already bound to any runtime (jsk-serve's
	// pooled environment). RunCell adds the tracer and obs setting.
	Defense defense.Defense
	// Reps is a timing row's repetition budget (0 means attack.Reps).
	// Rep r seeds its two secret-variant environments from Seed+2r, the
	// layout TimingAttack.Evaluate uses. A CVE row runs its trigger once.
	Reps int
	// Seed is the cell's base seed.
	Seed int64
}

// Instruments says what RunCell attaches to the cell's trace session.
// The zero value attaches nothing, and then no session is built.
type Instruments struct {
	// Records retains the session's records, so CellResult.Trace is a
	// part a parent session can absorb and Trace.Records the stream.
	Records bool
	// Validate checks the record stream against the kernel's lifecycle
	// invariants as it is emitted (trace.StreamValidator), retaining
	// nothing, and returns CellResult.Report.
	Validate bool
	// Obs turns on the browser's observability events.
	Obs bool
	// Forensics attaches obs.Detectors, and an obs.Collector (timing
	// rows) or an obs.CVEMirror (CVE rows), and returns the forensic
	// verdict, the detector signatures and the ledger fragments. It
	// forces obs events on; when Obs is not also set, the validator does
	// not see the obs-only records, so its report reads as the same
	// cell's obs-off run.
	Forensics bool
	// Races attaches an hb.Detector and returns its findings.
	Races bool
}

// Verdict is a cell's forensic re-judgement, reconstructed from its
// event stream alone.
type Verdict struct {
	// Flagged is the forensic verdict: the stream shows the attack
	// succeeding. On a healthy run Flagged == !Defended.
	Flagged bool `json:"flagged"`
	// Channels carries the forensic per-channel statistics (timing rows).
	Channels []obs.ChannelVerdict `json:"channels,omitempty"`
	// Evidence cites the record sequences that triggered the CVE mirror.
	Evidence []uint64 `json:"evidence,omitempty"`
	// Signatures are the streaming detectors' findings (flagged cells
	// only).
	Signatures []obs.Signature `json:"signatures,omitempty"`
}

// CellResult is what RunCell returns. The instrument-derived fields are
// nil when their instrument was not attached.
type CellResult struct {
	// Samples are a timing cell's measurements, one set per rep.
	Samples []attack.RepSamples
	// Outcome is the experiment's own verdict: the merged samples
	// judged (timing rows) or the registry consulted (CVE rows).
	Outcome attack.Outcome
	// Trace is the cell's closed session: its metrics registry, its
	// span-link coordinates and, with Records, its retained records.
	Trace *trace.Session
	// Readings are a timing cell's forensic readings, one per rep.
	Readings []obs.CellReadings
	// Verdict is the forensic re-judgement of the whole cell.
	Verdict *Verdict
	// Signatures are the detectors' findings, flagged or not.
	Signatures []obs.Signature
	// Fragments are the detectors' raw per-class tallies, the
	// below-threshold evidence the cross-request ledger accumulates.
	Fragments []obs.FragmentCount
	// Races are the happens-before findings.
	Races []hb.Finding
	// Report summarizes the validated record stream; ReportErr is the
	// first lifecycle violation instead.
	Report    *trace.Report
	ReportErr error
}

// RunCell evaluates one cell with the given instruments attached.
func RunCell(c Cell, ins Instruments) CellResult {
	var res CellResult
	d := c.Defense
	var col *obs.Collector
	var mirror *obs.CVEMirror
	var det *obs.Detectors
	var races *hb.Detector
	var sv *trace.StreamValidator
	if ins != (Instruments{}) {
		sess := trace.NewSession()
		sess.SetRetain(ins.Records)
		if ins.Forensics {
			if c.Timing != nil {
				col = obs.NewCollector()
				sess.Attach(col)
			} else {
				// A CVE row runs its trigger once, in the session's run 1.
				mirror = obs.NewCVEMirror(c.CVE.CVE, 1)
				sess.Attach(mirror)
			}
			det = obs.NewDetectors(obs.DefaultDetectorConfig())
			sess.Attach(det)
		}
		if ins.Races {
			races = hb.NewDetector()
			sess.Attach(races)
		}
		if ins.Validate {
			sv = trace.NewStreamValidator(false)
			if ins.Forensics && !ins.Obs {
				sess.Attach(obsOffView{sv})
			} else {
				sess.Attach(sv)
			}
		}
		d = d.WithTracer(sess)
		if ins.Obs || ins.Forensics {
			d = d.WithObs(true)
		}
		res.Trace = sess
	}

	if c.Timing != nil {
		reps := c.Reps
		if reps <= 0 {
			reps = attack.Reps
		}
		res.Samples = make([]attack.RepSamples, reps)
		for r := range res.Samples {
			if d.Runtime.Stopped() {
				// Canceled: the remaining reps' environments would each
				// be abandoned at their first poll.
				res.Samples = res.Samples[:r]
				break
			}
			res.Samples[r] = c.Timing.MeasureRep(d, c.Seed+int64(r)*2)
		}
		res.Outcome = c.Timing.AssembleOutcome(d.ID, attack.MergeSamples(res.Samples))
	} else {
		res.Outcome = attack.EvaluateCVE(c.CVE, d, c.Seed)
	}
	if res.Trace == nil {
		return res
	}
	res.Trace.Close()

	if det != nil {
		v := &Verdict{}
		if col != nil {
			// MeasureRep builds variant 0's environment before variant
			// 1's, so rep r's variants are the session's runs 2r+1, 2r+2.
			res.Readings = make([]obs.CellReadings, len(res.Samples))
			for r := range res.Readings {
				for variant := 0; variant < 2; variant++ {
					res.Readings[r].Variants[variant] = obs.ExtractReadings(c.Timing.ID, col.Measurements(2*r+1+variant))
				}
			}
			channels, defended := obs.JudgeTiming(res.Readings)
			v.Channels, v.Flagged = channels, !defended
		} else {
			v.Flagged, v.Evidence = mirror.Exploited()
		}
		res.Signatures = det.Finish()
		if v.Flagged {
			v.Signatures = res.Signatures
		}
		res.Verdict = v
		res.Fragments = det.Fragments()
	}
	if races != nil {
		res.Races = races.Findings()
	}
	if sv != nil {
		res.Report, res.ReportErr = sv.Finish()
	}
	return res
}

// obsOnlyNativeKinds are the native-record API names emitted solely
// when a defense runs with obs events on (browser.TraceTimerFired and
// friends). Everything else in the record stream is present with obs
// off too.
var obsOnlyNativeKinds = map[string]bool{
	"timer-fired":      true,
	"clock-read":       true,
	"message-callback": true,
	"frame-tick":       true,
	"load-done":        true,
}

// obsOffView passes its sink the records an obs-off run of the same
// cell would have produced: it drops the obs-only native records.
type obsOffView struct{ trace.Sink }

func (v obsOffView) Observe(r trace.Record) {
	if r.Op == trace.OpNative && obsOnlyNativeKinds[r.API] {
		return
	}
	v.Sink.Observe(r)
}
