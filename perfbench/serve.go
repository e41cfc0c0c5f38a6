package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"jskernel/internal/attack"
	"jskernel/internal/defense"
	"jskernel/internal/hb"
	"jskernel/internal/serve"
	"jskernel/internal/telemetry"
)

// serveDigests are, at defaultSeed, the digests of each pass's /v1/eval
// response bodies in request order.
var serveDigests = []string{
	"77822ba3791a5cde37595d9b07182edd6930c226b8a1ae467f60ffd6eae35365",
	"aa0cfbb43e28138aa975138ed1f9f19c496f73dcdbd9eb29dc6a70446a06c5d2",
	"843774742e8956e8c92c52628575dd5dc687594db8c053581d0411ba637c0614",
	"0c2e17be706a060e5d39b3327854ada000064638204fab8517e53e42961b7165",
	"dfe3a29d7c7f873d7485bebb89779e27307cc6c394b5e5eb188368a4a1ef8afd",
	"89317b0563ce85922a3066a6739b63b3dbac9a403521db515cd07ed05e7f1a58",
}

const (
	// servePassS is the nominal time of one pass on a 2-vCPU host.
	servePassS = 6.0
	// serveCallers is the closed loop's caller count. One caller leaves
	// the second vCPU to the collector, the flusher and the HTTP stack;
	// with one caller per vCPU both stay busy and ten runs of identical
	// work spread 27–31% (wall_s, p50_ms, p99_ms) on a 2-vCPU host,
	// against 11–15% with one.
	serveCallers = 1
	// serveTenants is the size of the skewed tenant pool.
	serveTenants = 300
	// orderSeed fixes the shuffled cell order every pass rotates
	// through. With the order fixed, the two workers pair up the same
	// cells whatever the run's seed, so which heavy simulations overlap —
	// and with them peak memory and the latency tail — does not change
	// from seed to seed.
	orderSeed = 20200629
)

// Op kinds of the serve workload.
const (
	opEval = iota
	opMetricsz
	opLedgerz
)

// serveOp is one HTTP request of the serve workload.
type serveOp struct {
	kind int
	pass int
	req  serve.Request
}

// serveCells lists the 176 Table I cells as (attack, defense) IDs: 10
// timing rows and 12 CVE rows, each against the 8 Table I defenses.
func serveCells() [][2]string {
	var cells [][2]string
	defs := defense.TableIDefenses()
	for _, a := range attack.TimingAttacks() {
		for _, d := range defs {
			cells = append(cells, [2]string{a.ID, d.ID})
		}
	}
	for _, a := range attack.CVEAttacks() {
		for _, d := range defs {
			cells = append(cells, [2]string{string(a.CVE), d.ID})
		}
	}
	return cells
}

// serveOps generates the request sequence of a run from its seed. Each
// pass requests every Table I cell once, at reps 1, in the fixed
// shuffled order rotated by a seeded offset, with a per-request
// simulation seed from a wide range; each cell sets trace:true in one
// pass of five and forensics:true in another, so every run does the
// same mix of work; tenants follow a Zipf law over serveTenants names.
// Between the evaluations, every 50th op is a GET /metricsz and every
// 100th a GET /ledgerz. Pass k depends only on the seed and the passes
// before it, so a longer run extends a shorter one.
func serveOps(seed int64, passes int) []serveOp {
	cells := serveCells()
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 4, serveTenants-1)
	order := rand.New(rand.NewSource(orderSeed)).Perm(len(cells))
	var evals []serveOp
	for k := 0; k < passes; k++ {
		off := rng.Intn(len(cells))
		for j := range order {
			c := order[(off+j)%len(order)]
			evals = append(evals, serveOp{kind: opEval, pass: k, req: serve.Request{
				Attack:    cells[c][0],
				Defense:   cells[c][1],
				Seed:      rng.Int63n(1 << 40),
				Reps:      1,
				Trace:     (c+k)%5 == 0,
				Forensics: (c+k)%5 == 2,
				Tenant:    fmt.Sprintf("tenant-%03d", zipf.Uint64()),
			}})
		}
	}
	ops := make([]serveOp, 0, len(evals)+len(evals)/40)
	for len(evals) > 0 {
		switch j := len(ops) + 1; {
		case j%100 == 0:
			ops = append(ops, serveOp{kind: opLedgerz, pass: ops[j-2].pass})
		case j%50 == 0:
			ops = append(ops, serveOp{kind: opMetricsz, pass: ops[j-2].pass})
		default:
			ops = append(ops, evals[0])
			evals = evals[1:]
		}
	}
	return ops
}

// server is one in-process jsk-serve instance and a client for it.
type server struct {
	srv       *serve.Server
	client    *serve.Client
	transport *http.Transport
}

// warmRequests are the untimed requests sent once per pool worker when
// a server is up.
var warmRequests = []serve.Request{
	{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 1, Reps: 1, Tenant: "warmup"},
	{Attack: "CVE-2018-5092", Defense: "chrome", Seed: 2, Tenant: "warmup"},
}

// startServer starts a server with the default pool (one worker per
// CPU) on a loopback port and warms it with warmRequests.
func startServer(cfg serve.Config) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{srv: serve.New(cfg), transport: &http.Transport{}}
	s.srv.Start(ln)
	s.client = &serve.Client{
		BaseURL:     "http://" + ln.Addr().String(),
		HTTPClient:  &http.Client{Transport: s.transport},
		MaxAttempts: 1,
	}
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		for _, req := range warmRequests {
			if _, err := s.client.EvalBytes(context.Background(), req); err != nil {
				s.stop()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return s, nil
}

// stop drains the server and closes the client's connections.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.transport.CloseIdleConnections()
	return err
}

// opResult is what one op returned.
type opResult struct {
	latMs   float64
	body    []byte // /v1/eval response body
	bad     string // why the op failed its check; "" when it passed
	size    int    // response size
	entries int    // /ledgerz entries
}

// run measures ops pass by pass, each pass driven to completion before
// the next starts.
func (s *server) run(ops []serveOp, recs []*recorder) ([]opResult, phase) {
	var starts []int
	for i, op := range ops {
		if i == 0 || op.pass != ops[i-1].pass {
			starts = append(starts, i)
		}
	}
	starts = append(starts, len(ops))
	res := make([]opResult, len(ops))
	ph := measure(len(starts)-1, func(k int) (int, []float64) {
		lo, hi := starts[k], starts[k+1]
		s.drive(ops[lo:hi], res[lo:hi], recs)
		return hi - lo, evalLatencies(ops[lo:hi], res[lo:hi])
	})
	return res, ph
}

// drive runs ops in a closed loop, filling res: each of len(recs)
// callers sends its next op only when the previous one returned.
// recs[c] is caller c's span recorder (nil when untraced).
func (s *server) drive(ops []serveOp, res []opResult, recs []*recorder) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, rec := range recs {
		wg.Add(1)
		go func(rec *recorder) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				res[i] = s.do(ops[i], rec)
			}
		}(rec)
	}
	wg.Wait()
}

// do sends one op and checks its response.
func (s *server) do(op serveOp, rec *recorder) opResult {
	t0 := time.Now()
	switch op.kind {
	case opEval:
		id := rec.begin("client.eval", 0)
		body, err := s.client.EvalBytes(context.Background(), op.req)
		rec.end(id)
		r := opResult{latMs: msSince(t0), body: body, size: len(body)}
		r.bad = checkEval(op.req, body, err)
		return r
	case opMetricsz:
		id := rec.begin("client.metricsz", 0)
		body, err := s.get("/metricsz")
		rec.end(id)
		r := opResult{latMs: msSince(t0), size: len(body)}
		if err == nil {
			_, err = telemetry.ParseExposition(string(body))
		}
		if err != nil {
			r.bad = "metricsz: " + err.Error()
		}
		return r
	default:
		id := rec.begin("client.ledgerz", 0)
		body, err := s.get("/ledgerz")
		rec.end(id)
		r := opResult{latMs: msSince(t0), size: len(body)}
		var rep telemetry.LedgerReport
		if err == nil {
			err = json.Unmarshal(body, &rep)
		}
		if err != nil {
			r.bad = "ledgerz: " + err.Error()
		}
		r.entries = len(rep.Entries)
		return r
	}
}

// get fetches a read endpoint, requiring status 200.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.HTTPClient.Get(s.client.BaseURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	return body, nil
}

// evalBody is the /v1/eval wire format as far as the checks read it.
// It is a view of its own because serve.Response cannot decode its own
// encoding: serve.Channel and obs.ChannelVerdict write a non-finite
// cohens_d as a string ("+Inf") and have no decoder for it.
type evalBody struct {
	Attack   string        `json:"attack"`
	Defense  string        `json:"defense"`
	Seed     int64         `json:"seed"`
	Defended bool          `json:"defended"`
	Channels []channelView `json:"channels"`
	Trace    *struct {
		Validated bool `json:"validated"`
	} `json:"trace"`
	Forensics *struct {
		Flagged  bool          `json:"flagged"`
		Channels []channelView `json:"channels"`
	} `json:"forensics"`
}

type channelView struct {
	Channel string     `json:"channel"`
	CohensD effectSize `json:"cohens_d"`
	Leaks   bool       `json:"leaks"`
}

// effectSize reads a number, or the string a non-finite one is
// written as.
type effectSize float64

func (e *effectSize) UnmarshalJSON(b []byte) error {
	var f float64
	if err := json.Unmarshal(b, &f); err == nil {
		*e = effectSize(f)
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(math.IsInf(f, 0) || math.IsNaN(f)) {
		return fmt.Errorf("effect size %q is neither a number nor non-finite", s)
	}
	*e = effectSize(f)
	return nil
}

// checkEval checks one /v1/eval response; it returns why it failed, or
// "" when it passed.
func checkEval(req serve.Request, body []byte, err error) string {
	if err != nil {
		return err.Error()
	}
	var resp evalBody
	if err := json.Unmarshal(body, &resp); err != nil {
		return "decode: " + err.Error()
	}
	switch {
	case resp.Attack != req.Attack || resp.Defense != req.Defense || resp.Seed != req.Seed:
		return "response names another cell"
	case strings.HasPrefix(req.Defense, "jskernel") && !resp.Defended:
		return "JSKernel cell not defended"
	case req.Trace && (resp.Trace == nil || !resp.Trace.Validated):
		return "trace not validated"
	case req.Forensics && (resp.Forensics == nil || resp.Forensics.Flagged == resp.Defended):
		return "forensic verdict disagrees with the harness verdict"
	}
	return ""
}

// passDigests hashes each pass's eval bodies in request order.
func passDigests(ops []serveOp, res []opResult) []string {
	var out []string
	h := sha256.New()
	for i, op := range ops {
		if op.kind != opEval {
			continue
		}
		if op.pass == len(out)+1 {
			out = append(out, hex.EncodeToString(h.Sum(nil)))
			h.Reset()
		}
		h.Write(res[i].body)
	}
	return append(out, hex.EncodeToString(h.Sum(nil)))
}

// evalLatencies lists the client latency of every /v1/eval op, ms.
func evalLatencies(ops []serveOp, res []opResult) []float64 {
	var out []float64
	for i, op := range ops {
		if op.kind == opEval {
			out = append(out, res[i].latMs)
		}
	}
	return out
}

// The serve workload: an in-process jsk-serve in production shape — the
// telemetry plane on, a pool of one worker per CPU — driven over
// loopback by a closed loop of serveCallers callers with the sequence
// serveOps generates (at least 1000 /v1/eval requests, uniform over the
// 176 Table I cells at reps 1, plus /metricsz and /ledgerz reads). The
// loop is closed because the service's callers wait for each verdict,
// and on two vCPUs a scheduled generator's queue turns host drift into
// latency swings.
//
// Why: the plane forces obs events, an obs.Collector, obs.Detectors and
// an hb.Detector onto every evaluation, so the sinks and the
// per-request service path dominate. The mix is bimodal: p50_ms tracks
// per-request overhead and p99_ms the heaviest simulations.
//
// Should move: p50_ms when admission, queueing, response rendering,
// HTTP or the plane's per-request work changes; wall_s, cpu_s and
// peak_rss_mb when the sinks, the ledger or the flusher change;
// p99_ms when the simulator or the heaviest cells change; kernel
// environments here are reset and reused from the pool, so
// defense.NewEnv's build cost matters less than in table1.
//
// Bypassed, so no change predicted: trace.Session.Absorb, the profiler
// and the obs report (table1-obs), and report rendering of whole
// tables.
func runServe(opts options) (*outcome, error) {
	var ops []serveOp
	srv, setup, err := timeSetup(func() (*server, error) {
		ops = serveOps(opts.seed, passes(opts.seconds, servePassS, len(serveCells())))
		return startServer(serve.Config{Telemetry: true})
	}, func(s *server) {
		if err := s.stop(); err != nil {
			logf("serve: stopping a set-up round's server: %v", err)
		}
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{attempted: len(ops)}
	res, untraced := srv.run(ops, make([]*recorder, serveCallers))
	if err := srv.stop(); err != nil {
		return nil, err
	}
	if out.endToEnd, err = endToEnd(setup, untraced); err != nil {
		return nil, err
	}
	out.failed = countFailed(res)
	if opts.seed == defaultSeed {
		for k, d := range passDigests(ops, res) {
			if k < len(serveDigests) && d != serveDigests[k] {
				out.failed += len(serveCells())
				logf("serve pass %d digest %s", k, d)
			}
		}
	}
	if !opts.trace {
		return out, nil
	}

	layers := map[string]float64{}
	goRuntimeLayer(layers, untraced)
	if err := traceServe(opts, ops, res, untraced, layers, out); err != nil {
		return nil, err
	}
	out.perLayer = layers
	return out, nil
}

// countFailed counts failed ops, logging the first few reasons.
func countFailed(res []opResult) int {
	n := 0
	for i, r := range res {
		if r.bad != "" {
			if n < 5 {
				logf("serve op %d failed: %s", i, r.bad)
			}
			n++
		}
	}
	return n
}

// traceServe is the traced part of a serve run. The first half of the
// passes runs again on a fresh plane-on server with a client span per
// request, the server's own phase timings read from /metricsz around it
// and hb findings read from /v1/events; then the same passes run
// against a plane-off server.
func traceServe(opts options, ops []serveOp, want []opResult, untraced phase, layers map[string]float64, out *outcome) error {
	n := 0
	for n < len(ops) && ops[n].pass < len(untraced.passWall)/2 {
		n++
	}
	ops, want = ops[:n], want[:n]
	srv, err := startServer(serve.Config{Telemetry: true})
	if err != nil {
		return err
	}
	before, err := srv.scrape()
	if err != nil {
		srv.stop()
		return err
	}
	// The event stream carries each request's happens-before findings.
	// It ends when the server drains; every return path also cancels it
	// and waits for the reader.
	var races, forensics int
	var streamErr error
	ctx, cancel := context.WithCancel(context.Background())
	streamDone := make(chan struct{})
	defer func() {
		cancel()
		<-streamDone
	}()
	go func() {
		defer close(streamDone)
		streamErr = srv.client.Events(ctx, 0, func(ev serve.StreamEvent) error {
			if ev.Type != telemetry.EventForensics {
				return nil
			}
			var fe struct {
				Tenant string       `json:"tenant"`
				Races  []hb.Finding `json:"races"`
			}
			if err := json.Unmarshal(ev.Data, &fe); err != nil {
				return err
			}
			if fe.Tenant != "warmup" {
				forensics++
				races += len(fe.Races)
			}
			return nil
		})
	}()

	origin := time.Now()
	recs := make([]*recorder, serveCallers)
	for c := range recs {
		recs[c] = newRecorder(origin)
	}
	res, traced := srv.run(ops, recs)
	to := time.Since(origin).Nanoseconds()
	after, err := srv.scrape()
	if err != nil {
		srv.stop()
		return err
	}
	batches, items, _, _ := srv.srv.Plane().FlushStats()
	if err := srv.stop(); err != nil {
		return err
	}
	<-streamDone
	if streamErr != nil {
		return fmt.Errorf("event stream: %w", streamErr)
	}
	out.failed += countFailed(res) + countDiverged(ops, res, want)

	// The same passes against a plane-off server; it has no ledger, so
	// the /ledgerz reads are left out.
	var offOps []serveOp
	var wantOff []opResult
	for i, op := range ops {
		if op.kind != opLedgerz {
			offOps = append(offOps, op)
			wantOff = append(wantOff, want[i])
		}
	}
	off, err := startServer(serve.Config{})
	if err != nil {
		return err
	}
	offRes, planeOff := off.run(offOps, make([]*recorder, serveCallers))
	if err := off.stop(); err != nil {
		return err
	}
	out.failed += countFailed(offRes) + countDiverged(offOps, offRes, wantOff)

	rec := newRecorder(origin)
	for _, r := range recs {
		rec.merge(r)
	}
	evals := float64(len(evalLatencies(ops, res)))
	delta := func(name, suffix, phase string) float64 {
		return expoValue(after, name, suffix, phase) - expoValue(before, name, suffix, phase)
	}
	phaseMs := func(phase string) float64 {
		n := delta("jsk_span_phase_seconds", "_count", phase)
		if n == 0 {
			return 0
		}
		return 1e3 * delta("jsk_span_phase_seconds", "_sum", phase) / n
	}
	var server float64
	for _, ph := range []string{"admission", "queue", "eval", "render"} {
		ms := phaseMs(ph)
		server += ms
		layers["serve."+ph+"_ms"] = ms
	}
	tot := rec.totals()
	layers["serve.http_ms"] = 1e3*tot["client.eval"]/evals - server
	layers["kernel.enqueued"] = delta("jsk_kernel_enqueued", "_total", "") / evals
	layers["kernel.dispatched"] = delta("jsk_kernel_dispatched", "_total", "") / evals
	layers["kernel.interpose_crossings"] = delta("jsk_kernel_interpose_crossings", "_total", "") / evals
	layers["hb.findings"] = float64(races) / evals
	if forensics != int(evals) {
		logf("serve: event stream carried %d of %d forensic verdicts; hb.findings counts those", forensics, int(evals))
	}
	var scrapes, lastExpo, lastLedger int
	for i, op := range ops {
		switch op.kind {
		case opMetricsz:
			scrapes++
			lastExpo = res[i].size
		case opLedgerz:
			lastLedger = res[i].entries
		}
	}
	layers["telemetry.scrape_ms"] = 1e3 * tot["client.metricsz"] / float64(max(scrapes, 1))
	layers["telemetry.exposition_kb"] = float64(lastExpo) / 1024
	layers["telemetry.ledger_entries"] = float64(lastLedger)
	layers["telemetry.items_per_batch"] = float64(items) / float64(max(batches, 1))
	layers["telemetry.plane_overhead_pct"] = 100 * (median(untraced.passWall[:len(planeOff.passWall)])/median(planeOff.passWall) - 1)
	traceRunLayer(layers, rec, traced, 0, to, untraced)
	return rec.write(opts.spans)
}

// countDiverged counts /v1/eval ops whose body differs from the
// untraced run's: responses are a pure function of the request, with
// or without tracing and the plane.
func countDiverged(ops []serveOp, res, want []opResult) int {
	n := 0
	for i, op := range ops {
		if op.kind == opEval && !bytes.Equal(res[i].body, want[i].body) {
			if n == 0 {
				logf("serve op %d: body differs from the untraced run", i)
			}
			n++
		}
	}
	return n
}

// scrape reads and parses /metricsz.
func (s *server) scrape() ([]telemetry.Family, error) {
	body, err := s.get("/metricsz")
	if err != nil {
		return nil, fmt.Errorf("metricsz: %w", err)
	}
	return telemetry.ParseExposition(string(body))
}

// expoValue finds the sample name+suffix whose phase label is phase
// ("" for an unlabelled sample); 0 when absent.
func expoValue(fams []telemetry.Family, name, suffix, phase string) float64 {
	for _, f := range fams {
		if f.Name != name {
			continue
		}
		for _, s := range f.Samples {
			if s.Suffix != suffix {
				continue
			}
			got := ""
			for _, l := range s.Labels {
				if l.Name == "phase" {
					got = l.Value
				}
			}
			if got == phase {
				return s.Value
			}
		}
	}
	return 0
}
