package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// counters is a snapshot of the process-wide counters the end-to-end
// and Go-runtime metrics are differences of.
type counters struct {
	wall       time.Time
	cpu        time.Duration // user + system, all threads
	allocs     uint64
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // seconds, the runtime's own estimate
	gcPauses   *metrics.Float64Histogram
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/sched/pauses/total/gc:seconds",
}

func readCounters() counters {
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c := counters{
		wall:       time.Now(),
		cpu:        processCPU(),
		allocs:     s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCycles:   s[2].Value.Uint64(),
		gcCPU:      s[3].Value.Float64(),
	}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPauses = s[4].Value.Float64Histogram()
	}
	return c
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the kernel's resident-set high-water mark for this
// process (getrusage maxrss, KiB on Linux), in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// delta is what happened between two counter snapshots.
type delta struct {
	wallS, cpuS        float64
	allocs, allocBytes uint64
	gcCycles           uint64
	gcCPUS             float64
	gcPauseP99Ms       float64
}

func since(a, b counters) delta {
	return delta{
		wallS:        b.wall.Sub(a.wall).Seconds(),
		cpuS:         (b.cpu - a.cpu).Seconds(),
		allocs:       b.allocs - a.allocs,
		allocBytes:   b.allocBytes - a.allocBytes,
		gcCycles:     b.gcCycles - a.gcCycles,
		gcCPUS:       b.gcCPU - a.gcCPU,
		gcPauseP99Ms: histDeltaQuantile(a.gcPauses, b.gcPauses, 0.99) * 1e3,
	}
}

// histDeltaQuantile reads quantile q of the observations added to a
// cumulative runtime histogram between snapshots a and b, reporting the
// upper edge of the bucket that holds it (0 when nothing was added).
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	want := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= want {
			edge := b.Buckets[i+1]
			if math.IsInf(edge, 1) {
				edge = b.Buckets[i]
			}
			return edge
		}
	}
	return 0
}

// tailBeyond is the number of samples a reported percentile must have
// beyond it before the benchmark reports it.
const tailBeyond = 10

// rank is the 1-based nearest-rank position of quantile q in n sorted
// samples.
func rank(q float64, n int) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// tailQuantiles are the percentiles the helper considers, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// percentiles returns the median of samples and the highest percentile
// among tailQuantiles that has at least tailBeyond samples beyond it,
// with that quantile; q is 0 when there are too few samples for any.
// Both values are quantile estimates.
func percentiles(samples []float64) (p50, q, pq float64) {
	if len(samples) == 0 {
		return 0, 0, 0
	}
	p50 = quantile(samples, 0.5)
	for _, cand := range tailQuantiles {
		if len(samples)-rank(cand, len(samples)) >= tailBeyond {
			return p50, cand, quantile(samples, cand)
		}
	}
	return p50, 0, 0
}

// quantile is the Harrell–Davis estimate of quantile p of samples (0
// when empty): the mean of the order statistics weighted by a
// Beta(p(n+1), (1-p)(n+1)) distribution. Op latencies cluster in
// separated modes — Table I has light and heavy cells, with few in
// between — so a single order statistic near a gap jumps from one mode
// to the other when a few samples move; the weighted mean moves with
// them smoothly.
func quantile(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	a, b := p*float64(n+1), (1-p)*float64(n+1)
	var est, prev float64
	for i := 1; i <= n; i++ {
		cur := regIncBeta(float64(i)/float64(n), a, b)
		est += (cur - prev) * s[i-1]
		prev = cur
	}
	return est
}

// regIncBeta is the regularized incomplete beta function I_x(a, b),
// by its continued fraction.
func regIncBeta(x, a, b float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) - la - lb + lab)
	if x < (a+1)/(a+b+2) {
		return front * betaCF(x, a, b) / a
	}
	return 1 - front*betaCF(1-x, b, a)/b
}

// betaCF evaluates the continued fraction of I_x(a, b) by the modified
// Lentz method.
func betaCF(x, a, b float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m < 10000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		if math.Abs(d*c-1) < eps {
			break
		}
	}
	return h
}

// median is the middle of a small sample — a run's passes or set-up
// rounds — or the mean of its two middle values.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// span is one timed call from the benchmark into a layer's public
// function. Times are nanoseconds since the recorder's origin.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for one goroutine. A nil recorder is
// the untraced run: every method is a no-op and reads no clock.
type recorder struct {
	origin time.Time
	spans  []span
}

func newRecorder(origin time.Time) *recorder { return &recorder{origin: origin} }

// begin opens a span under parent (0 for a root) and returns its ID.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(r.origin).Nanoseconds()})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].End = time.Since(r.origin).Nanoseconds()
}

// merge appends other's spans, renumbering them after r's.
func (r *recorder) merge(other *recorder) {
	base := len(r.spans)
	for _, s := range other.spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

// selfTimes sums, per span name, each span's duration minus the
// durations of its direct children, in seconds. Children run on their
// parent's goroutine, so they never overlap one another.
func (r *recorder) selfTimes() map[string]float64 {
	childNs := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		if s.Parent != 0 {
			childNs[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += float64(s.End-s.Start-childNs[s.ID]) / 1e9
	}
	return out
}

// totals sums span durations per name, in seconds.
func (r *recorder) totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range r.spans {
		out[s.Name] += float64(s.End-s.Start) / 1e9
	}
	return out
}

// coverage is the share of [from, to] (nanoseconds since the origin)
// covered by the union of root spans.
func (r *recorder) coverage(from, to int64) float64 {
	var iv [][2]int64
	for _, s := range r.spans {
		if s.Parent == 0 && s.End > from && s.Start < to {
			iv = append(iv, [2]int64{max(s.Start, from), min(s.End, to)})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var covered, reach int64 = 0, from
	for _, v := range iv {
		if v[1] <= reach {
			continue
		}
		covered += v[1] - max(v[0], reach)
		reach = v[1]
	}
	if to <= from {
		return 0
	}
	return float64(covered) / float64(to-from)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	return f.Close()
}

// logf reports a diagnostic on standard error.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}
