package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"jskernel/internal/defense"
	"jskernel/internal/telemetry"
)

// The service layer deliberately lives on the wall clock — deadlines,
// Retry-After hints and drain timeouts are promises to real clients —
// while every simulation it runs stays on virtual time. jsk-lint's
// detwalltime allowlist sanctions exactly this package for that reason;
// nothing wall-clock-derived may leak into a Response (see eval.go).

// Config tunes the server. The zero value is usable: every field has a
// production-shaped default applied by New.
type Config struct {
	// Pool is the number of evaluation workers. Each request builds its
	// environments fresh through kernel.NewShared, as the batch
	// experiments do. Default: GOMAXPROCS.
	Pool int
	// QueueDepth bounds the admission queue; a full queue rejects with
	// 429 + Retry-After, never blocks and never drops silently.
	// Default: 4 × Pool.
	QueueDepth int
	// DefaultDeadline is the per-request completion budget when the
	// request does not carry deadline_ms. Default: 30s.
	DefaultDeadline time.Duration
	// DefaultReps / MaxReps bound the timing-row repetition budget.
	// Defaults: 5 / 25 (the paper's budget).
	DefaultReps int
	MaxReps     int
	// Telemetry attaches a retain-off trace session to every evaluation
	// and mounts the live observability plane: per-request spans and
	// streaming forensics on /v1/events, the kernel metrics aggregate on
	// /metricsz and /statsz, the cross-request ledger on /ledgerz.
	// Tracing never perturbs a run, so responses are byte-identical
	// either way.
	Telemetry bool
	// Log receives operational lines (startup, drain, breaker
	// transitions). Default: io.Discard.
	Log io.Writer

	// The fields below are test seams, set only by this package's tests;
	// zero takes the default.

	// readTimeout overrides defaultReadTimeout.
	readTimeout time.Duration
	// breakerThreshold overrides defaultBreakerThreshold.
	breakerThreshold int
	// telemetryEventRing overrides the /v1/events replay ring size.
	// Consumers that fall behind the ring receive an explicit gap event
	// rather than applying backpressure; the chaos tests shrink the ring
	// to force that path. Default: the plane's own default.
	telemetryEventRing int
	// faultHook, when non-nil, is called from every cancellation poll of
	// a running evaluation (chaos harness only). It may panic to model a
	// poisoned environment mid-request; the worker's recover path then
	// drops the evaluation together with its environments.
	faultHook func(req *Request, polls int)
}

// Service bounds. Only this package's tests override the two defaults.
const (
	// maxBodyBytes bounds request bodies.
	maxBodyBytes = 1 << 20
	// maxTenantBytes bounds a request's tenant name. Every distinct name
	// is a key of the cross-request ledger.
	maxTenantBytes = 128
	// defaultReadTimeout bounds how long a client may take to deliver
	// its request (the slow-loris bound).
	defaultReadTimeout = 15 * time.Second
	// defaultBreakerThreshold consecutive environment poisonings open
	// the circuit breaker for breakerCooldown; traffic after the
	// cooldown probes the pool and a success closes it again.
	defaultBreakerThreshold = 3
	breakerCooldown         = 2 * time.Second
)

func (c *Config) pool() int {
	if c.Pool > 0 {
		return c.Pool
	}
	return runtime.GOMAXPROCS(0)
}
func (c *Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 4 * c.pool()
}
func (c *Config) defaultDeadline() time.Duration {
	if c.DefaultDeadline > 0 {
		return c.DefaultDeadline
	}
	return 30 * time.Second
}
func (c *Config) defaultReps() int {
	if c.DefaultReps > 0 {
		return c.DefaultReps
	}
	return 5
}
func (c *Config) maxReps() int {
	if c.MaxReps > 0 {
		return c.MaxReps
	}
	return 25
}
func (c *Config) log() io.Writer {
	if c.Log != nil {
		return c.Log
	}
	return io.Discard
}

// job is one admitted request travelling from handler to worker.
type job struct {
	cl   *cell
	ctx  context.Context
	done chan jobOutcome // buffered: the worker never blocks on an abandoned handler

	// Span bookkeeping (telemetry plane only). requestID also rides the
	// Jsk-Request-Id response header; admittedAt feeds the queue phase.
	requestID  string
	admittedAt time.Time
}

type jobOutcome struct {
	resp *Response
	err  *Error
	// queueNs/evalNs are the worker-side span phases; link joins the
	// span to the request's virtual-time trace. Zero/nil without the
	// telemetry plane.
	queueNs int64
	evalNs  int64
	link    *telemetry.SpanLink
}

func (j *job) finish(out jobOutcome) {
	j.done <- out
}

// Server is the kernel service: admission control in front of a bounded
// queue, a pool of workers that build each request's environments
// fresh, a circuit breaker around poisonings, and a graceful drain.
type Server struct {
	cfg   Config
	queue chan *job
	mux   *http.ServeMux

	admitMu  sync.Mutex
	draining bool

	jobs    sync.WaitGroup // admitted but unfinished requests
	workers sync.WaitGroup

	breaker breaker
	stats   stats
	// ewmaNs is the smoothed per-request service time feeding the
	// deadline-aware admission estimate and Retry-After hints.
	ewmaNs atomic.Int64

	// plane is the live observability plane (nil without Telemetry).
	plane *telemetry.Plane
	// reqSeq numbers requests for the Jsk-Request-Id header and the
	// forensics ledger. A plain counter, never a timestamp: request IDs
	// must not smuggle wall-clock state anywhere near response bodies.
	reqSeq atomic.Uint64

	httpSrv *http.Server
}

// New builds a server and starts its worker pool. The caller serves
// HTTP via Handler (tests) or Start/Run (daemon), and must eventually
// call Shutdown to stop the workers.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg}
	s.queue = make(chan *job, s.cfg.queueDepth())
	s.breaker.threshold = cmp.Or(cfg.breakerThreshold, defaultBreakerThreshold)
	s.breaker.cooldown = breakerCooldown
	s.breaker.log = s.cfg.log()
	if cfg.Telemetry {
		s.plane = telemetry.NewPlane(cfg.telemetryEventRing)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /statsz", s.handleStatsz)
	s.mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	s.mux.HandleFunc("GET /versionz", s.handleVersionz)
	s.mux.HandleFunc("GET /ledgerz", s.handleLedgerz)
	s.mux.HandleFunc("GET /v1/events", s.handleEvents)
	s.startWorkers()
	return s
}

// Plane exposes the observability plane (nil without Telemetry) for
// tests and the benchmark.
func (s *Server) Plane() *telemetry.Plane { return s.plane }

// Handler exposes the server's HTTP surface without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// startWorkers launches the evaluation pool; workers exit when the
// queue closes during drain. These goroutines — and the ones in Start
// and awaitDrain — are the audited entries in jsk-lint's goroutinescope
// allowlist for this package: each runs simulations that share nothing
// with its siblings (the same argument that sanctions runner.Ordered), and
// none outlives Shutdown.
func (s *Server) startWorkers() {
	for w := 0; w < s.cfg.pool(); w++ {
		s.workers.Add(1)
		go func() {
			defer s.workers.Done()
			for j := range s.queue {
				s.serveJob(j)
			}
		}()
	}
}

// serveJob runs one admitted request. Its evaluation builds every
// environment it needs and drops them when it ends, panicking or not.
func (s *Server) serveJob(j *job) {
	start := time.Now()
	var queueNs int64
	if !j.admittedAt.IsZero() {
		queueNs = start.Sub(j.admittedAt).Nanoseconds()
	}
	defer s.jobs.Done()
	defer func() {
		if r := recover(); r != nil {
			// Poisoned environment: quarantine by replacement. The
			// panicking evaluation's environments are dropped with it, so
			// neighboring in-flight requests (each on their own worker and
			// environments) are untouched and the next request builds
			// fresh ones; the breaker counts the strike.
			s.stats.envReplaced.Add(1)
			s.breaker.failure(time.Now())
			fmt.Fprintf(s.cfg.log(), "jsk-serve: evaluation panic (%v); environment discarded\n", r)
			j.finish(jobOutcome{
				err:     errf(CodeEnvPoisoned, "evaluation panicked: %v; environment discarded and replaced", r),
				queueNs: queueNs,
			})
		}
	}()

	if j.ctx.Err() != nil {
		// Spent its whole budget queued. Typed rejection, never silent.
		j.finish(jobOutcome{err: ctxError(j.ctx), queueNs: queueNs})
		return
	}

	polls := 0
	rt := &defense.Runtime{
		Canceled: func() bool {
			polls++
			if h := s.cfg.faultHook; h != nil {
				h(&j.cl.req, polls)
			}
			return j.ctx.Err() != nil
		},
	}
	resp, res, eerr := evaluate(j.cl, rt, s.plane != nil)
	evalNs := time.Since(start).Nanoseconds()
	if j.ctx.Err() != nil {
		// Canceled mid-run: the simulation was abandoned and whatever
		// evaluate assembled is not trustworthy. Shed the work, keep the
		// accuracy. The abandoned run's telemetry is discarded with it —
		// partial fragments must never feed the ledger.
		j.finish(jobOutcome{err: ctxError(j.ctx), queueNs: queueNs, evalNs: evalNs})
		return
	}
	s.breaker.success()
	s.observeService(time.Since(start))
	if eerr != nil {
		j.finish(jobOutcome{err: eerr, queueNs: queueNs, evalNs: evalNs})
		return
	}
	out := jobOutcome{resp: resp, queueNs: queueNs, evalNs: evalNs}
	if s.plane != nil {
		// The response is already fully assembled: everything submitted
		// from here on is pure data for the plane, derived from the
		// deterministic event stream, and cannot change what the client
		// receives. The streaming verdict is the per-response judgement
		// itself, so /v1/events agrees with body forensics by
		// construction.
		out.link = &telemetry.SpanLink{
			Runs:    res.Trace.Runs(),
			LastSeq: uint64(res.Trace.Len()),
			VTMaxMs: res.Trace.MaxVT().Milliseconds(),
		}
		s.plane.SubmitEval(&telemetry.EvalRecord{
			RequestID: j.requestID,
			Tenant:    j.cl.req.Tenant,
			Scope:     j.cl.req.Attack,
			Metrics:   res.Trace.Metrics(),
			Forensics: &ForensicsEvent{
				RequestID: j.requestID,
				Tenant:    j.cl.req.Tenant,
				Attack:    j.cl.req.Attack,
				Defense:   j.cl.req.Defense,
				Seed:      j.cl.req.Seed,
				Summary:   res.Verdict,
				Races:     res.Races,
			},
			Fragments: captureFragments(res.Fragments, res.Races),
		})
	}
	s.stats.completed.Add(1)
	j.finish(out)
}

// ctxError maps a done context to the typed error contract.
func ctxError(ctx context.Context) *Error {
	if errors.Is(ctx.Err(), context.Canceled) {
		return errf(CodeCanceled, "client went away before completion")
	}
	return errf(CodeDeadline, "request deadline expired before completion")
}

// observeService folds one service time into the admission EWMA.
func (s *Server) observeService(d time.Duration) {
	old := s.ewmaNs.Load()
	if old == 0 {
		s.ewmaNs.Store(int64(d))
		return
	}
	s.ewmaNs.Store((3*old + int64(d)) / 4)
}

// estimateWait predicts how long a newly admitted request would sit
// behind the current queue. It deliberately over-admits when the EWMA
// is still cold (zero): shedding is for measured pressure, not guesses.
func (s *Server) estimateWait(queued int) time.Duration {
	ewma := time.Duration(s.ewmaNs.Load())
	if ewma <= 0 {
		return 0
	}
	return ewma * time.Duration(queued) / time.Duration(s.cfg.pool())
}

// handleEval is the admission path: parse, resolve, admit (or reject
// explicitly), then wait for the worker or the deadline — whichever
// comes first. Every request gets a service-assigned ID in the
// Jsk-Request-Id response header — a header, never a body field, so
// response bodies stay a pure function of the Request.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	requestID := fmt.Sprintf("req-%06d", s.reqSeq.Add(1))
	w.Header().Set("Jsk-Request-Id", requestID)
	span := &telemetry.Span{RequestID: requestID}
	finishSpan := func(code Code, out *jobOutcome) {
		if s.plane == nil {
			return
		}
		span.Code = string(code)
		if out != nil {
			span.QueueNs = out.queueNs
			span.EvalNs = out.evalNs
			span.Link = out.link
		}
		s.plane.SubmitSpan(span)
	}

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		s.stats.rejectedBadRequest.Add(1)
		span.AdmissionNs = time.Since(arrived).Nanoseconds()
		s.writeError(w, errf(CodeBadRequest, "reading body: %v", err))
		finishSpan(CodeBadRequest, nil)
		return
	}
	req, derr := decodeRequest(body)
	if derr != nil {
		s.stats.rejectedBadRequest.Add(1)
		span.AdmissionNs = time.Since(arrived).Nanoseconds()
		s.writeError(w, derr)
		finishSpan(derr.Code, nil)
		return
	}
	// ?trace=summary folds into the body's trace flag before resolution,
	// so the query form and the body form produce identical responses.
	if r.URL.Query().Get("trace") == "summary" {
		req.Trace = true
	}
	span.Tenant, span.Attack, span.Defense = req.Tenant, req.Attack, req.Defense
	cl, rerr := s.cfg.resolve(req)
	if rerr != nil {
		s.stats.rejectedBadRequest.Add(1)
		span.AdmissionNs = time.Since(arrived).Nanoseconds()
		s.writeError(w, rerr)
		finishSpan(rerr.Code, nil)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), cl.budget)
	defer cancel()
	j := &job{cl: cl, ctx: ctx, done: make(chan jobOutcome, 1), requestID: requestID}

	if aerr := s.admit(j); aerr != nil {
		span.AdmissionNs = time.Since(arrived).Nanoseconds()
		s.writeError(w, aerr)
		finishSpan(aerr.Code, nil)
		return
	}
	span.AdmissionNs = time.Since(arrived).Nanoseconds()

	//jsk:lint-ignore detselect wall-clock service boundary: completion and client cancellation are OS events with no deterministic order to preserve
	select {
	case out := <-j.done:
		if out.err != nil {
			s.countError(out.err)
			s.writeError(w, out.err)
			finishSpan(out.err.Code, &out)
			return
		}
		renderStart := time.Now()
		s.writeJSON(w, http.StatusOK, out.resp)
		span.RenderNs = time.Since(renderStart).Nanoseconds()
		finishSpan("", &out)
	case <-ctx.Done():
		// The worker will notice the same cancellation and discard the
		// run; respond with the typed error now rather than holding the
		// connection for a result that must not be used.
		cerr := ctxError(ctx)
		s.countError(cerr)
		s.writeError(w, cerr)
		finishSpan(cerr.Code, nil)
	}
}

// admit applies admission control: draining and breaker checks, then
// queue-depth and deadline-aware rejection. Rejections are always
// explicit and typed; admission increments the drain group before the
// job becomes visible to workers.
func (s *Server) admit(j *job) *Error {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	if s.draining {
		s.stats.rejectedDraining.Add(1)
		e := errf(CodeDraining, "server is draining")
		e.RetryAfterMs = 1000
		return e
	}
	if open, wait := s.breaker.rejects(time.Now()); open {
		s.stats.rejectedBreaker.Add(1)
		e := errf(CodeBreakerOpen, "circuit breaker open after repeated environment poisonings")
		e.RetryAfterMs = wait.Milliseconds() + 1
		return e
	}
	queued := len(s.queue)
	if est := s.estimateWait(queued); est > j.cl.budget {
		s.stats.rejectedOverload.Add(1)
		e := errf(CodeOverloaded, "estimated queue wait %v exceeds request budget %v", est, j.cl.budget)
		e.RetryAfterMs = est.Milliseconds() + 1
		return e
	}
	s.jobs.Add(1)
	j.admittedAt = time.Now()
	select {
	case s.queue <- j:
		s.stats.admitted.Add(1)
		return nil
	default:
		s.jobs.Done()
		s.stats.rejectedOverload.Add(1)
		est := s.estimateWait(queued)
		if est <= 0 {
			est = 500 * time.Millisecond
		}
		e := errf(CodeOverloaded, "admission queue full (%d deep)", queued)
		e.RetryAfterMs = est.Milliseconds() + 1
		return e
	}
}

// countError attributes a typed failure to its stats counter.
func (s *Server) countError(e *Error) {
	switch e.Code {
	case CodeDeadline:
		s.stats.deadlineExceeded.Add(1)
	case CodeCanceled:
		s.stats.canceled.Add(1)
	case CodeInternal:
		s.stats.internalErrors.Add(1)
	}
}

// Start serves HTTP on ln in the background with the slow-loris read
// bound applied; use Shutdown (or Run, which wraps both) to stop.
func (s *Server) Start(ln net.Listener) {
	readTimeout := cmp.Or(s.cfg.readTimeout, defaultReadTimeout)
	s.httpSrv = &http.Server{
		Handler:           s.mux,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: readTimeout,
		// A keep-alive connection waits for its next request this long,
		// whatever the read bound. Left zero it would follow the read
		// bound, which tests shrink: a server then closes idle
		// connections every few hundred milliseconds, and a POST that a
		// client sends on one as it closes fails with EOF, unretried.
		IdleTimeout: defaultReadTimeout,
	}
	fmt.Fprintf(s.cfg.log(), "jsk-serve: listening on %s (pool %d, queue %d)\n",
		ln.Addr(), s.cfg.pool(), s.cfg.queueDepth())
	srv := s.httpSrv
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(s.cfg.log(), "jsk-serve: serve error: %v\n", err)
		}
	}()
}

// Run serves on ln until a signal arrives on stop, then drains
// gracefully within drainTimeout. It is the daemon main loop of
// cmd/jsk-serve, kept here so the command stays goroutine-free.
func (s *Server) Run(ln net.Listener, stop <-chan os.Signal, drainTimeout time.Duration) error {
	s.Start(ln)
	sig := <-stop
	fmt.Fprintf(s.cfg.log(), "jsk-serve: received %v, draining (timeout %v)\n", sig, drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	return s.Shutdown(ctx)
}

// Shutdown drains gracefully: new requests are rejected with a typed
// draining error, every in-flight request runs to completion (bounded
// by its own deadline), then the workers and listener stop. Returns
// ctx's error if the drain outruns it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.admitMu.Lock()
	already := s.draining
	s.draining = true
	s.admitMu.Unlock()
	if already {
		return nil
	}
	if err := s.awaitDrain(ctx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	close(s.queue)
	s.workers.Wait()
	if s.plane != nil {
		// After the workers: every in-flight submission has been made.
		// Before the HTTP listener: closing the plane ends the event hub,
		// which unblocks /v1/events handlers so httpSrv.Shutdown can
		// finish. A scrape racing the drain still gets a complete,
		// parseable exposition — the plane applies post-close submissions
		// inline and never drops them.
		s.plane.Close()
	}
	if s.httpSrv != nil {
		if err := s.httpSrv.Shutdown(ctx); err != nil {
			return err
		}
	}
	fmt.Fprintf(s.cfg.log(), "jsk-serve: drained cleanly\n")
	return nil
}

// awaitDrain waits for every admitted request to finish, bounded by ctx.
func (s *Server) awaitDrain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.jobs.Wait()
		close(done)
	}()
	//jsk:lint-ignore detselect shutdown path races drain completion against the deadline by design; either arm is a correct outcome
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether a graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.admitMu.Lock()
	defer s.admitMu.Unlock()
	return s.draining
}

// writeJSON writes a deterministic JSON body: compact encoding plus a
// trailing newline, no wall-clock-derived fields.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":{"code":"internal","message":"encoding response"}}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError writes the typed error envelope, carrying the Retry-After
// hint both as a header (seconds, ceiling) and in the body (exact ms).
func (s *Server) writeError(w http.ResponseWriter, e *Error) {
	if e.RetryAfterMs > 0 {
		secs := (e.RetryAfterMs + 999) / 1000
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	s.writeJSON(w, e.HTTPStatus(), errEnvelope{Error: e})
}
