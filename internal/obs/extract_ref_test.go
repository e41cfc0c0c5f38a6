package obs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/browser"
	"jskernel/internal/defense"
	"jskernel/internal/sim"
	"jskernel/internal/trace"
)

// The per-event extractors are the reference the run-length extractors
// in extract.go are checked against, on random streams
// (TestExtractorsMatchReference) and on the streams of every Table I
// timing cell (TestExtractorsMatchReferenceOnTable1). Each replays a
// run's measurement events one by one, so it reads a run-length coded
// stream only after expand.

// expand returns the per-event form of a run-length coded stream: each
// entry repeated n times, each copy with a count of 1.
func expand(fs []Measurement) []Measurement {
	var out []Measurement
	for _, m := range fs {
		e := m
		e.n = 1
		for i := uint32(0); i < m.n; i++ {
			out = append(out, e)
		}
	}
	return out
}

// refExtractReadings reconstructs the per-channel measurement of one
// timing-attack run from the measurement events a Collector kept for
// it. It returns nil when the run's measurement cannot be reconstructed
// (harness never completed under this defense), mirroring a skipped
// variant.
func refExtractReadings(attackID string, fs []Measurement) map[string]float64 {
	switch attackID {
	case "history-sniffing", "svg-filtering", "floating-point":
		return refExtractSync(fs)
	case "cache-attack", "script-parsing", "image-decoding":
		return refExtractAsync(fs)
	case "css-animation":
		return refExtractFrame(fs, frameAnimation, chFrames)
	case "video-webvtt":
		return refExtractFrame(fs, frameCue, chCues)
	case "clock-edge":
		return refExtractEdge(fs)
	case "loopscan":
		return refExtractLoopscan(fs)
	}
	return nil
}

// refClockValue decodes a clock-read event's observed value.
func refClockValue(ev Measurement) float64 {
	return math.Float64frombits(uint64(ev.aux))
}

// refWarmupIndex finds the harness's warmup timer: the first main-window
// timer callback whose requested delay is the 60ms warmup.
func refWarmupIndex(fs []Measurement) int {
	for i, ev := range fs {
		if ev.kind == mTimer && ev.aux == warmupAuxNs {
			return i
		}
	}
	return -1
}

// refFirstAfter finds the first event after index w matching pred.
func refFirstAfter(fs []Measurement, w int, pred func(Measurement) bool) int {
	for i := w + 1; i < len(fs); i++ {
		if pred(fs[i]) {
			return i
		}
	}
	return -1
}

// refCountBetween counts events strictly between indices lo and hi
// matching pred.
func refCountBetween(fs []Measurement, lo, hi int, pred func(Measurement) bool) int {
	n := 0
	for i := lo + 1; i < hi; i++ {
		if pred(fs[i]) {
			n++
		}
	}
	return n
}

// refNextClock returns the index of the first clock read at or after i,
// or len(fs) when there is none.
func refNextClock(fs []Measurement, i int) int {
	for i < len(fs) && fs[i].kind != mClock {
		i++
	}
	return i
}

// refPerfNowDelta reads the measurement's two explicit clock samples —
// the first two performance.now reads after the warmup fired — and
// returns their difference.
func refPerfNowDelta(fs []Measurement, w int) (float64, bool) {
	first := refNextClock(fs, w+1)
	second := refNextClock(fs, first+1)
	if second >= len(fs) {
		return 0, false
	}
	return refClockValue(fs[second]) - refClockValue(fs[first]), true
}

// refExtractSync reconstructs measureSyncOp: worker ticks delivered
// between the warmup timer and the zero-delay closing timer, plus the
// performance.now delta around the operation.
func refExtractSync(fs []Measurement) map[string]float64 {
	w := refWarmupIndex(fs)
	if w < 0 {
		return nil
	}
	c := refFirstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mTimer && ev.aux == 0
	})
	if c < 0 {
		return nil
	}
	dt, ok := refPerfNowDelta(fs, w)
	if !ok {
		return nil
	}
	ticks := refCountBetween(fs, w, c, func(ev Measurement) bool {
		return ev.kind == mMessage
	})
	return map[string]float64{chWorkerTicks: float64(ticks), chPerfNow: dt}
}

// refExtractAsync reconstructs measureAsyncOp: tick-loop callbacks between
// the warmup timer and the load completion, plus the performance.now
// delta.
func refExtractAsync(fs []Measurement) map[string]float64 {
	w := refWarmupIndex(fs)
	if w < 0 {
		return nil
	}
	l := refFirstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mLoad
	})
	if l < 0 {
		return nil
	}
	dt, ok := refPerfNowDelta(fs, w)
	if !ok {
		return nil
	}
	ticks := refCountBetween(fs, w, l, func(ev Measurement) bool {
		return ev.kind == mTimer && ev.aux == 0
	})
	return map[string]float64{chTickLoop: float64(ticks), chPerfNow: dt}
}

// refExtractFrame reconstructs measureWithFrameClock: frame ticks of the
// given detail between the warmup timer and the load completion.
func refExtractFrame(fs []Measurement, detail frameDetail, channel string) map[string]float64 {
	w := refWarmupIndex(fs)
	if w < 0 {
		return nil
	}
	l := refFirstAfter(fs, w, func(ev Measurement) bool {
		return ev.kind == mLoad
	})
	if l < 0 {
		return nil
	}
	dt, ok := refPerfNowDelta(fs, w)
	if !ok {
		return nil
	}
	frames := refCountBetween(fs, w, l, func(ev Measurement) bool {
		return ev.kind == mFrame && ev.frame == detail
	})
	return map[string]float64{channel: float64(frames), chPerfNow: dt}
}

// refExtractEdge replays the clock-edge attack loop over the run's ordered
// clock-read values. The harness reads the clock once per loop-condition
// evaluation (including the evaluation that exits), so the replay must
// consume reads identically and end with every read accounted for.
func refExtractEdge(fs []Measurement) map[string]float64 {
	i := refNextClock(fs, 0)
	read := func() (float64, bool) {
		if i >= len(fs) {
			return 0, false
		}
		v := refClockValue(fs[i])
		i = refNextClock(fs, i+1)
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

// refExtractLoopscan reconstructs measureLoopscan. Probe tasks are
// identified structurally: a probe is the only main-window timer
// callback immediately followed by a clock read (victim bursts only
// busy-loop; worker-spray callbacks only post). Probe k's first read is
// its gap check against probe k-1's last read, so the maxima replay
// directly.
func refExtractLoopscan(fs []Measurement) map[string]float64 {
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
		firstRead[k] = refClockValue(fs[j])
		for j+1 < len(fs) && fs[j+1].kind == mClock {
			j++
		}
		lastRead[k] = refClockValue(fs[j])
	}
	maxGap, maxNow := 0.0, 0.0
	for k := 1; k < len(probes); k++ {
		gap := refCountBetween(fs, probes[k-1], probes[k], func(ev Measurement) bool {
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

// sameReadings reports whether two reading sets are identical, bit for
// bit (NaN equal to the same NaN).
func sameReadings(a, b map[string]float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for ch, v := range a {
		w, ok := b[ch]
		if !ok || math.Float64bits(v) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// attackIDs lists every attack ExtractReadings knows, sorted.
func attackIDs() []string {
	var ids []string
	for _, a := range attack.TimingAttacks() {
		ids = append(ids, a.ID)
	}
	sort.Strings(ids)
	return ids
}

// checkAgainstReference fails t unless ExtractReadings on the
// run-length stream fs returns what the reference returns on its
// per-event form, for every attack; it counts the non-nil readings per
// attack in hits.
func checkAgainstReference(t *testing.T, what string, fs []Measurement, hits map[string]int) {
	t.Helper()
	events := expand(fs)
	for _, id := range attackIDs() {
		got, want := ExtractReadings(id, fs), refExtractReadings(id, events)
		if !sameReadings(got, want) {
			t.Fatalf("%s, %s: run-length extraction %v, per-event reference %v", what, id, got, want)
		}
		if got != nil {
			hits[id]++
		}
	}
}

// measurementRecord is the native record a Collector reduces to m.
func measurementRecord(run int, m Measurement) trace.Record {
	var kind browser.TraceKind
	detail := ""
	switch m.kind {
	case mTimer:
		kind = browser.TraceTimerFired
	case mClock:
		kind = browser.TraceClockRead
	case mMessage:
		kind = browser.TraceMessageCallback
	case mFrame:
		kind = browser.TraceFrameTick
		detail = [...]string{frameOther: "raf", frameAnimation: "animation", frameCue: "cue"}[m.frame]
	case mLoad:
		kind = browser.TraceLoadDone
	}
	return trace.Record{Run: run, Op: trace.OpNative, API: kind.String(), Reason: detail, Value: mainToken, Aux: m.aux}
}

// randomStream draws a run-length stream whose entries are not
// necessarily maximal (neighbours may code the same event), over an
// alphabet small enough that every harness shape turns up: warmup and
// zero-delay timers, clock reads that repeat a few values (with +0 and
// -0, which compare equal but code differently), messages, frame ticks
// of each detail and loads, each entry counting one to three events.
func randomStream(rng *rand.Rand) []Measurement {
	clocks := []float64{1, 2, 2.5, 0, math.Copysign(0, -1)}
	fs := make([]Measurement, rng.Intn(160))
	for i := range fs {
		m := Measurement{n: 1 + uint32(rng.Intn(3))}
		switch r := rng.Intn(20); {
		case r < 6:
			m.kind = mClock
			m.aux = int64(math.Float64bits(clocks[rng.Intn(len(clocks))]))
		case r < 11:
			m.kind = mTimer
			m.aux = [...]int64{0, 0, warmupAuxNs, int64(sim.Millisecond)}[rng.Intn(4)]
		case r < 15:
			m.kind = mMessage
		case r < 18:
			m.kind, m.frame = mFrame, frameDetail(rng.Intn(3))
			m.aux = int64(rng.Intn(2))
		default:
			m.kind = mLoad
		}
		fs[i] = m
	}
	return fs
}

// edgeStream draws a clock-edge shaped stream: a few clock entries over
// three values, between other events, so that some streams replay as
// clock-edge runs and some fail by one read either way. In one stream
// of four, one entry's count lies within two of the harness's probe
// cap.
func edgeStream(rng *rand.Rand) []Measurement {
	var fs []Measurement
	big := -1
	k := 2 + rng.Intn(5)
	if rng.Intn(4) == 0 {
		big = rng.Intn(k)
	}
	for i := 0; i < k; i++ {
		n := uint32(1 + rng.Intn(3))
		if i == big {
			n = uint32(edgeMaxProbe - 2 + rng.Intn(5))
		}
		v := float64(5 + rng.Intn(3))
		fs = append(fs, Measurement{kind: mClock, n: n, aux: int64(math.Float64bits(v))})
		if rng.Intn(4) == 0 {
			fs = append(fs, Measurement{kind: mMessage, n: 1})
		}
	}
	return fs
}

// TestExtractorsMatchReference: on random run-length streams, maximal
// or not, every extractor returns what the per-event reference returns
// on the same events, and the maximal stream a Collector builds from
// those events extracts the same again.
func TestExtractorsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hits := make(map[string]int)
	for i := 0; i < 900; i++ {
		fs := randomStream(rng)
		if i%3 == 0 {
			fs = edgeStream(rng)
		}
		checkAgainstReference(t, fmt.Sprintf("stream %d", i), fs, hits)
		c := NewCollector()
		for _, m := range expand(fs) {
			c.Observe(measurementRecord(1, m))
		}
		kept := c.Measurements(1)
		if got, want := expand(kept), expand(fs); len(got) != len(want) {
			t.Fatalf("stream %d: Collector kept %d events, want %d", i, len(got), len(want))
		}
		for k := 1; k < len(kept); k++ {
			if kept[k].sameEvent(kept[k-1]) {
				t.Fatalf("stream %d: Collector entries %d and %d code the same event", i, k-1, k)
			}
		}
		checkAgainstReference(t, fmt.Sprintf("stream %d, collected", i), kept, hits)
	}
	for _, id := range attackIDs() {
		if hits[id] == 0 {
			t.Errorf("%s: no random stream extracted, so the check never compared a reading", id)
		}
	}
}

// TestExtractorsMatchReferenceOnTable1: for every Table I timing cell
// at seeds 42 and 7, the run-length extractors read each run's
// collected stream exactly as the per-event reference reads its
// events.
func TestExtractorsMatchReferenceOnTable1(t *testing.T) {
	hits := make(map[string]int)
	for _, seed := range []int64{42, 7} {
		for _, a := range attack.TimingAttacks() {
			for _, d := range defense.TableIDefenses() {
				sess := trace.NewSession()
				sess.SetRetain(false)
				col := NewCollector()
				sess.Attach(col)
				a.MeasureRep(d.WithTracer(sess).WithObs(true), seed)
				sess.Close()
				for run := 1; run <= 2; run++ {
					fs := col.Measurements(run)
					got, want := ExtractReadings(a.ID, fs), refExtractReadings(a.ID, expand(fs))
					if !sameReadings(got, want) {
						t.Fatalf("%s/%s seed %d run %d: run-length extraction %v, per-event reference %v", a.ID, d.ID, seed, run, got, want)
					}
					if got != nil {
						hits[a.ID]++
					}
				}
			}
		}
	}
	for _, id := range attackIDs() {
		if hits[id] == 0 {
			t.Errorf("%s: no Table I run extracted", id)
		}
	}
}
