package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"jskernel/internal/browser"
	"jskernel/internal/sim"
	"jskernel/internal/stats"
	"jskernel/internal/trace"
)

// Measurement reconstruction: given only a run's measurement events (the
// main-window slice of its native observability stream a Collector
// keeps), re-derive the per-channel readings the timing-attack harness
// in internal/attack reported for that run. Each Table I attack has a
// fixed measurement shape (warmup timer, implicit-clock ticks between
// two markers, explicit clock-read deltas), so the extractor replays
// the shape over the event stream. When a marker is missing — the
// harness errored or never completed — extraction fails and returns
// nil, which mirrors exactly how a failed measurement contributes no
// samples to the verdict.
//
// The channel names and harness constants below are deliberate mirrors
// of internal/attack (which obs must not import: the forensics layer's
// value is that it reconstructs measurements from the stream alone,
// without the harness's in-process state). The golden forensics test in
// internal/expr pins the mirror: if the harness changes shape, the
// reconstruction drifts from the actual verdicts and the test fails.
const (
	chWorkerTicks = "worker-ticks"
	chTickLoop    = "tick-loop"
	chPerfNow     = "perf-now"
	chEdgePad     = "edge-pad"
	chFrames      = "anim-frames"
	chCues        = "video-cues"
	chMaxGap      = "max-gap"

	// mainToken is the scope token of the main window: the browser
	// allocates token 1 to the first scope it creates.
	mainToken = 1
	// warmupAuxNs is the harness warmup delay (60ms) as the raw Aux
	// value a timer-fired event carries.
	warmupAuxNs = int64(60 * sim.Millisecond)
	// edgeMaxProbe caps the clock-edge alignment/padding loops.
	edgeMaxProbe = 40000
	// loopscanMinProbes is the harness's minimum probe count below
	// which loopscan reports a horizon failure.
	loopscanMinProbes = 10
)

// Measurement is one measurement event a Collector keeps: a native
// observability record of the main window reduced to what the harness
// shapes read.
type Measurement struct {
	kind measureKind
	// frame codes a frame tick's detail; zero for other kinds.
	frame frameDetail
	// aux is the record's Aux: a timer's requested delay, a clock read's
	// value bits, a frame or cue index.
	aux int64
}

// measureKind is a Measurement's native kind.
type measureKind uint8

const (
	mTimer   measureKind = iota + 1 // timer-fired, no detail (setTimeout)
	mClock                          // clock-read, no detail (performance.now)
	mMessage                        // message-callback
	mFrame                          // frame-tick, any detail
	mLoad                           // load-done
)

// frameDetail codes the frame-tick details the frame-clock extractors
// count; every other detail (requestAnimationFrame's "raf") is
// frameOther, still kept because loopscan's probe-adjacency test reads
// every event in sequence.
type frameDetail uint8

const (
	frameOther frameDetail = iota
	frameAnimation
	frameCue
)

// measurementOf reduces r to a Measurement, reporting false for every
// record the harness shapes are not built from: non-native records,
// unknown kinds, worker-side events (scope token ≠ 1), interval timers
// and Date.now reads.
func measurementOf(r trace.Record) (Measurement, bool) {
	if r.Op != trace.OpNative || r.Value != mainToken {
		return Measurement{}, false
	}
	kind, ok := browser.KindByName(r.API)
	if !ok {
		return Measurement{}, false
	}
	m := Measurement{aux: r.Aux}
	switch kind {
	case browser.TraceTimerFired:
		if r.Reason != "" { // interval timers: not used by harnesses
			return Measurement{}, false
		}
		m.kind = mTimer
	case browser.TraceClockRead:
		if r.Reason != "" { // "date" reads: not used by harnesses
			return Measurement{}, false
		}
		m.kind = mClock
	case browser.TraceMessageCallback:
		m.kind = mMessage
	case browser.TraceFrameTick:
		m.kind = mFrame
		switch r.Reason {
		case "animation":
			m.frame = frameAnimation
		case "cue":
			m.frame = frameCue
		}
	case browser.TraceLoadDone:
		m.kind = mLoad
	default:
		return Measurement{}, false
	}
	return m, true
}

// ExtractReadings reconstructs the per-channel measurement of one
// timing-attack run from the measurement events a Collector kept for
// it. It returns nil when the run's measurement cannot be reconstructed
// (harness never completed under this defense), mirroring a skipped
// variant.
func ExtractReadings(attackID string, fs []Measurement) map[string]float64 {
	switch attackID {
	case "history-sniffing", "svg-filtering", "floating-point":
		return extractSync(fs)
	case "cache-attack", "script-parsing", "image-decoding":
		return extractAsync(fs)
	case "css-animation":
		return extractFrame(fs, frameAnimation, chFrames)
	case "video-webvtt":
		return extractFrame(fs, frameCue, chCues)
	case "clock-edge":
		return extractEdge(fs)
	case "loopscan":
		return extractLoopscan(fs)
	}
	return nil
}

// clockValue decodes a clock-read event's observed value.
func clockValue(ev Measurement) float64 {
	return math.Float64frombits(uint64(ev.aux))
}

// warmupIndex finds the harness's warmup timer: the first main-window
// timer callback whose requested delay is the 60ms warmup.
func warmupIndex(fs []Measurement) int {
	for i, ev := range fs {
		if ev.kind == mTimer && ev.aux == warmupAuxNs {
			return i
		}
	}
	return -1
}

// firstAfter finds the first event after index w matching pred.
func firstAfter(fs []Measurement, w int, pred func(Measurement) bool) int {
	for i := w + 1; i < len(fs); i++ {
		if pred(fs[i]) {
			return i
		}
	}
	return -1
}

// countBetween counts events strictly between indices lo and hi
// matching pred.
func countBetween(fs []Measurement, lo, hi int, pred func(Measurement) bool) int {
	n := 0
	for i := lo + 1; i < hi; i++ {
		if pred(fs[i]) {
			n++
		}
	}
	return n
}

// nextClock returns the index of the first clock read at or after i,
// or len(fs) when there is none.
func nextClock(fs []Measurement, i int) int {
	for i < len(fs) && fs[i].kind != mClock {
		i++
	}
	return i
}

// perfNowDelta reads the measurement's two explicit clock samples —
// the first two performance.now reads after the warmup fired — and
// returns their difference.
func perfNowDelta(fs []Measurement, w int) (float64, bool) {
	first := nextClock(fs, w+1)
	second := nextClock(fs, first+1)
	if second >= len(fs) {
		return 0, false
	}
	return clockValue(fs[second]) - clockValue(fs[first]), true
}

// extractSync reconstructs measureSyncOp: worker ticks delivered
// between the warmup timer and the zero-delay closing timer, plus the
// performance.now delta around the operation.
func extractSync(fs []Measurement) map[string]float64 {
	w := warmupIndex(fs)
	if w < 0 {
		return nil
	}
	c := firstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mTimer && ev.aux == 0
	})
	if c < 0 {
		return nil
	}
	dt, ok := perfNowDelta(fs, w)
	if !ok {
		return nil
	}
	ticks := countBetween(fs, w, c, func(ev Measurement) bool {
		return ev.kind == mMessage
	})
	return map[string]float64{chWorkerTicks: float64(ticks), chPerfNow: dt}
}

// extractAsync reconstructs measureAsyncOp: tick-loop callbacks between
// the warmup timer and the load completion, plus the performance.now
// delta.
func extractAsync(fs []Measurement) map[string]float64 {
	w := warmupIndex(fs)
	if w < 0 {
		return nil
	}
	l := firstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mLoad
	})
	if l < 0 {
		return nil
	}
	dt, ok := perfNowDelta(fs, w)
	if !ok {
		return nil
	}
	ticks := countBetween(fs, w, l, func(ev Measurement) bool {
		return ev.kind == mTimer && ev.aux == 0
	})
	return map[string]float64{chTickLoop: float64(ticks), chPerfNow: dt}
}

// extractFrame reconstructs measureWithFrameClock: frame ticks of the
// given detail between the warmup timer and the load completion.
func extractFrame(fs []Measurement, detail frameDetail, channel string) map[string]float64 {
	w := warmupIndex(fs)
	if w < 0 {
		return nil
	}
	l := firstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mLoad
	})
	if l < 0 {
		return nil
	}
	dt, ok := perfNowDelta(fs, w)
	if !ok {
		return nil
	}
	frames := countBetween(fs, w, l, func(ev Measurement) bool {
		return ev.kind == mFrame && ev.frame == detail
	})
	return map[string]float64{channel: float64(frames), chPerfNow: dt}
}

// extractEdge replays the clock-edge attack loop over the run's ordered
// clock-read values. The harness reads the clock once per loop-condition
// evaluation (including the evaluation that exits), so the replay must
// consume reads identically and end with every read accounted for.
func extractEdge(fs []Measurement) map[string]float64 {
	i := nextClock(fs, 0)
	read := func() (float64, bool) {
		if i >= len(fs) {
			return 0, false
		}
		v := clockValue(fs[i])
		i = nextClock(fs, i+1)
		return v, true
	}
	start, ok := read()
	if !ok {
		return nil
	}
	guard := 0
	for {
		v, ok := read()
		if !ok {
			return nil
		}
		if v == start && guard < edgeMaxProbe {
			guard++
			continue
		}
		break
	}
	cur, ok := read()
	if !ok {
		return nil
	}
	pad := 0
	for {
		v, ok := read()
		if !ok {
			return nil
		}
		if v == cur && pad < edgeMaxProbe {
			pad++
			continue
		}
		break
	}
	if i != len(fs) {
		// Leftover reads mean the stream is not a clock-edge run.
		return nil
	}
	return map[string]float64{chEdgePad: float64(pad)}
}

// extractLoopscan reconstructs measureLoopscan. Probe tasks are
// identified structurally: a probe is the only main-window timer
// callback immediately followed by a clock read (victim bursts only
// busy-loop; worker-spray callbacks only post). Probe k's first read is
// its gap check against probe k-1's last read, so the maxima replay
// directly.
func extractLoopscan(fs []Measurement) map[string]float64 {
	var probes []int
	for i, ev := range fs {
		if ev.kind == mTimer && i+1 < len(fs) && fs[i+1].kind == mClock {
			probes = append(probes, i)
		}
	}
	if len(probes) < loopscanMinProbes {
		return nil
	}
	firstRead := make([]float64, len(probes))
	lastRead := make([]float64, len(probes))
	for k, pi := range probes {
		j := pi + 1
		firstRead[k] = clockValue(fs[j])
		for j+1 < len(fs) && fs[j+1].kind == mClock {
			j++
		}
		lastRead[k] = clockValue(fs[j])
	}
	maxGap, maxNow := 0.0, 0.0
	for k := 1; k < len(probes); k++ {
		gap := countBetween(fs, probes[k-1], probes[k], func(ev Measurement) bool {
			return ev.kind == mMessage
		})
		if d := float64(gap); d > maxGap {
			maxGap = d
		}
		if d := firstRead[k] - lastRead[k-1]; d > maxNow {
			maxNow = d
		}
	}
	return map[string]float64{chMaxGap: maxGap, chPerfNow: maxNow}
}

// CellReadings is one repetition's reconstructed measurements: one
// reading set per secret variant, nil where reconstruction failed.
type CellReadings struct {
	Variants [2]map[string]float64 `json:"variants"`
}

// ChannelVerdict is the per-channel statistical outcome of the
// forensic re-judgement.
type ChannelVerdict struct {
	Channel string  `json:"channel"`
	MeanA   float64 `json:"mean_a"`
	MeanB   float64 `json:"mean_b"`
	CohensD float64 `json:"cohens_d"`
	Leaks   bool    `json:"leaks"`
}

// MarshalJSON keeps verdicts encodable: a zero-variance channel with
// distinct means has an infinite effect size, which JSON cannot carry
// as a number, so non-finite values are rendered as strings.
func (v ChannelVerdict) MarshalJSON() ([]byte, error) {
	var d any = v.CohensD
	if math.IsInf(v.CohensD, 0) || math.IsNaN(v.CohensD) {
		d = fmt.Sprintf("%v", v.CohensD)
	}
	return json.Marshal(struct {
		Channel string  `json:"channel"`
		MeanA   float64 `json:"mean_a"`
		MeanB   float64 `json:"mean_b"`
		CohensD any     `json:"cohens_d"`
		Leaks   bool    `json:"leaks"`
	}{v.Channel, v.MeanA, v.MeanB, d, v.Leaks})
}

// UnmarshalJSON is MarshalJSON's inverse: cohens_d is a number or one of
// the strings "+Inf", "-Inf" and "NaN".
func (v *ChannelVerdict) UnmarshalJSON(b []byte) error {
	var w struct {
		Channel string          `json:"channel"`
		MeanA   float64         `json:"mean_a"`
		MeanB   float64         `json:"mean_b"`
		CohensD json.RawMessage `json:"cohens_d"`
		Leaks   bool            `json:"leaks"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	d, err := decodeEffectSize(w.CohensD)
	if err != nil {
		return err
	}
	*v = ChannelVerdict{Channel: w.Channel, MeanA: w.MeanA, MeanB: w.MeanB, CohensD: d, Leaks: w.Leaks}
	return nil
}

// decodeEffectSize reads a cohens_d value as MarshalJSON writes it.
func decodeEffectSize(raw json.RawMessage) (float64, error) {
	if len(raw) == 0 {
		return 0, nil
	}
	if raw[0] != '"' {
		var d float64
		if err := json.Unmarshal(raw, &d); err != nil {
			return 0, fmt.Errorf("obs: cohens_d: %w", err)
		}
		return d, nil
	}
	var s string
	if err := json.Unmarshal(raw, &s); err != nil {
		return 0, fmt.Errorf("obs: cohens_d: %w", err)
	}
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return 0, fmt.Errorf("obs: cohens_d: %q is not +Inf, -Inf or NaN", s)
}

// JudgeTiming merges reconstructed readings across repetitions (in rep
// order, exactly like the harness merges its samples) and re-judges
// each channel with the paper's distinguishability criterion. It
// returns the per-channel verdicts and whether the defense held — true
// when no channel's effect size reaches the threshold.
func JudgeTiming(reps []CellReadings) ([]ChannelVerdict, bool) {
	merged := make(map[string][2][]float64)
	for _, rep := range reps {
		for variant := 0; variant < 2; variant++ {
			m := rep.Variants[variant]
			if m == nil {
				continue
			}
			chans := make([]string, 0, len(m))
			for ch := range m {
				chans = append(chans, ch)
			}
			sort.Strings(chans)
			for _, ch := range chans {
				v := m[ch]
				if strings.HasPrefix(ch, "_") || math.IsNaN(v) || math.IsInf(v, 0) {
					continue
				}
				pair := merged[ch]
				pair[variant] = append(pair[variant], v)
				merged[ch] = pair
			}
		}
	}
	chans := make([]string, 0, len(merged))
	for ch := range merged {
		chans = append(chans, ch)
	}
	sort.Strings(chans)
	var verdicts []ChannelVerdict
	defended := true
	for _, ch := range chans {
		pair := merged[ch]
		if len(pair[0]) == 0 || len(pair[1]) == 0 {
			continue
		}
		cv := ChannelVerdict{
			Channel: ch,
			MeanA:   stats.Mean(pair[0]),
			MeanB:   stats.Mean(pair[1]),
			CohensD: stats.CohensD(pair[0], pair[1]),
		}
		cv.Leaks = cv.CohensD >= stats.DistinguishableThreshold
		if cv.Leaks {
			defended = false
		}
		verdicts = append(verdicts, cv)
	}
	return verdicts, defended
}
