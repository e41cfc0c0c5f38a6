package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"jskernel/internal/expr/runner"
)

// postEval drives the handler directly (no listener).
func postEval(t *testing.T, s *Server, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeError(t *testing.T, w *httptest.ResponseRecorder) *Error {
	t.Helper()
	var env errEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil || env.Error == nil {
		t.Fatalf("expected error envelope, got %q", w.Body.String())
	}
	return env.Error
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	s := New(cfg)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s
}

func TestEvalEndpoint(t *testing.T) {
	s := newTestServer(t, Config{Pool: 2, Telemetry: true})

	t.Run("timing cell", func(t *testing.T) {
		w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":2,"trace":true,"forensics":true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !resp.Defended {
			t.Error("jskernel-chrome should defend loopscan")
		}
		if resp.Kind != "timing" || resp.Reps != 2 {
			t.Errorf("kind=%q reps=%d", resp.Kind, resp.Reps)
		}
		if resp.Trace == nil || !resp.Trace.Validated {
			t.Error("requested trace missing or unvalidated")
		}
		if resp.Forensics == nil {
			t.Fatal("requested forensics missing")
		}
		if resp.Forensics.Flagged {
			t.Error("forensics flagged a defended cell")
		}
		if !strings.Contains(resp.Table, "Table I cell") {
			t.Errorf("table rendering missing: %q", resp.Table)
		}
	})
	t.Run("undefended timing cell flags in forensics", func(t *testing.T) {
		w := postEval(t, s, `{"attack":"cache-attack","defense":"chrome","seed":42,"reps":2,"forensics":true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Defended {
			t.Error("stock chrome should not defend cache-attack")
		}
		if resp.Forensics == nil || !resp.Forensics.Flagged {
			t.Error("forensics failed to flag the undefended cell")
		}
		if resp.Forensics != nil && resp.Forensics.Flagged && len(resp.Forensics.Signatures) == 0 {
			t.Error("flagged cell carries no detector signatures")
		}
	})
	t.Run("cve cell", func(t *testing.T) {
		w := postEval(t, s, `{"attack":"CVE-2018-5092","defense":"jskernel-chrome","seed":42,"trace":true}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		var resp Response
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.Kind != "cve" || !resp.Defended || resp.Exploited {
			t.Errorf("kind=%q defended=%v exploited=%v", resp.Kind, resp.Defended, resp.Exploited)
		}
		if resp.Trace == nil || !resp.Trace.Validated {
			t.Error("requested trace missing or unvalidated")
		}
	})
}

// TestEvalRejections walks the typed admission failures end to end.
func TestEvalRejections(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	cases := []struct {
		name   string
		body   string
		status int
		code   Code
	}{
		{"malformed json", `{"attack":`, http.StatusBadRequest, CodeBadRequest},
		{"unknown field", `{"attack":"loopscan","defense":"chrome","bogus":1}`, http.StatusBadRequest, CodeBadRequest},
		{"trailing value", `{"attack":"CVE-2018-5092","defense":"chrome","seed":1} {"attack":`, http.StatusBadRequest, CodeBadRequest},
		{"missing attack", `{"defense":"chrome"}`, http.StatusBadRequest, CodeBadRequest},
		{"missing defense", `{"attack":"loopscan"}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown attack", `{"attack":"nope","defense":"chrome"}`, http.StatusNotFound, CodeUnknownAttack},
		{"unknown cve", `{"attack":"CVE-1999-0001","defense":"chrome"}`, http.StatusNotFound, CodeUnknownAttack},
		{"unknown defense", `{"attack":"loopscan","defense":"nope"}`, http.StatusNotFound, CodeUnknownDefense},
		{"reps over cap", `{"attack":"loopscan","defense":"chrome","reps":9999}`, http.StatusBadRequest, CodeBadRequest},
		{"negative deadline", `{"attack":"loopscan","defense":"chrome","deadline_ms":-1}`, http.StatusBadRequest, CodeBadRequest},
		{"deadline overflows to a negative budget", `{"attack":"loopscan","defense":"chrome","deadline_ms":9223372036854775807}`, http.StatusBadRequest, CodeBadRequest},
		{"deadline overflows to a zero budget", `{"attack":"loopscan","defense":"chrome","deadline_ms":4611686018427387904}`, http.StatusBadRequest, CodeBadRequest},
		{"tenant over cap", `{"attack":"loopscan","defense":"chrome","tenant":"` + strings.Repeat("t", maxTenantBytes+1) + `"}`, http.StatusBadRequest, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := postEval(t, s, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.status, w.Body.String())
			}
			e := decodeError(t, w)
			if e.Code != tc.code {
				t.Errorf("code %s, want %s", e.Code, tc.code)
			}
			if e.Retryable() {
				t.Errorf("%s must be permanent", e.Code)
			}
		})
	}
}

// TestDrainingRejection pins the drain contract at the HTTP layer: a
// draining server answers 503 with the typed draining code, a
// Retry-After header, and readyz flips to not-ready.
func TestDrainingRejection(t *testing.T) {
	s := New(Config{Pool: 1, Log: io.Discard})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	w := postEval(t, s, `{"attack":"loopscan","defense":"chrome","seed":1}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	e := decodeError(t, w)
	if e.Code != CodeDraining || !e.Retryable() {
		t.Errorf("got %s retryable=%v, want retryable draining", e.Code, e.Retryable())
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("503 draining without Retry-After header")
	}

	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, req)
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz on draining server: %d, want 503", rw.Code)
	}
}

// workerGate holds the first n evaluations inside their first
// cancellation poll until open, so a test fills the pool and the queue
// exactly instead of racing the workers. Its hook is the Config
// faultHook.
type workerGate struct {
	n       int32
	held    atomic.Int32
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func newWorkerGate(n int) *workerGate {
	return &workerGate{n: int32(n), entered: make(chan struct{}, n), release: make(chan struct{})}
}

func (g *workerGate) hook(_ *Request, polls int) {
	if polls == 1 && g.held.Add(1) <= g.n {
		g.entered <- struct{}{}
		<-g.release
	}
}

// awaitHeld waits until k more evaluations are held.
func (g *workerGate) awaitHeld(t *testing.T, k int) {
	t.Helper()
	for i := 0; i < k; i++ {
		select {
		case <-g.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d evaluations reached the gate", i, k)
		}
	}
}

// open releases every held evaluation; later calls do nothing.
func (g *workerGate) open() { g.once.Do(func() { close(g.release) }) }

// waitUntil polls cond until it holds, failing the test after 10 s.
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

type evalResult struct {
	body []byte
	err  error
}

// evalAsync sends req from a goroutine; the result arrives on the
// returned channel.
func evalAsync(c *Client, req Request) <-chan evalResult {
	out := make(chan evalResult, 1)
	go func() {
		body, err := c.EvalBytes(context.Background(), req)
		out <- evalResult{body, err}
	}()
	return out
}

// noKeepAlive is an HTTP client that opens one connection per request.
// A pooling transport that dials for a request and then serves it on a
// connection freed meanwhile parks the dialed connection unused, and
// http.Server.Shutdown waits 5 s for such a connection before treating
// it as idle.
func noKeepAlive() *http.Client {
	return &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
}

// referenceBody evaluates req on a fresh, unloaded pool-1 server.
func referenceBody(t *testing.T, req Request) []byte {
	t.Helper()
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := postEval(t, newTestServer(t, Config{Pool: 1}), string(data))
	if w.Code != http.StatusOK {
		t.Fatalf("reference: status %d: %s", w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// TestOverloadShedsTyped saturates a pool-1, queue-1 server with its
// one worker held: exactly one request runs and one queues, every
// further request is shed with a typed 429 and a retry hint (none is
// dropped silently), and both admitted requests answer with the
// unloaded reference bytes once the worker is released.
func TestOverloadShedsTyped(t *testing.T) {
	req := Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 1}
	want := referenceBody(t, req)

	gate := newWorkerGate(1)
	s, client := chaosServer(t, Config{Pool: 1, QueueDepth: 1, faultHook: gate.hook})
	defer chaosShutdown(t, s)
	// Deferred after the shutdown, so it runs first: the shutdown waits
	// for the held worker.
	defer gate.open()
	client.MaxAttempts = 1 // count first-attempt outcomes
	client.HTTPClient = noKeepAlive()

	running := evalAsync(client, req)
	gate.awaitHeld(t, 1)
	queued := evalAsync(client, req)
	waitUntil(t, "the second request is admitted", func() bool { return s.Snapshot().Admitted == 2 })
	if got := s.Snapshot().QueueDepth; got != 1 {
		t.Fatalf("queue depth %d with the worker held, want 1", got)
	}

	const shed = 6
	errs := runner.Map(4, shed, func(int) error {
		_, err := client.EvalBytes(context.Background(), req)
		return err
	})
	for i, err := range errs {
		e, ok := err.(*Error)
		if !ok {
			t.Fatalf("request %d past a full queue: got %v, want a typed overloaded error", i, err)
		}
		if e.Code != CodeOverloaded || e.HTTPStatus() != http.StatusTooManyRequests || e.RetryAfterMs <= 0 {
			t.Errorf("request %d: code %s status %d retry_after_ms %d, want overloaded 429 with a retry hint",
				i, e.Code, e.HTTPStatus(), e.RetryAfterMs)
		}
	}

	gate.open()
	for i, ch := range []<-chan evalResult{running, queued} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("admitted request %d: %v", i, r.err)
		}
		if !bytes.Equal(r.body, want) {
			t.Errorf("admitted request %d: response under overload differs from the unloaded reference", i)
		}
	}
	snap := s.Snapshot()
	if snap.Admitted != 2 || snap.Completed != 2 || snap.RejectedOverload != shed {
		t.Errorf("admitted %d completed %d shed %d, want 2, 2, %d", snap.Admitted, snap.Completed, snap.RejectedOverload, shed)
	}
}

// TestRunDrainsOnSignal drives the daemon loop cmd/jsk-serve runs:
// Server.Run on a loopback listener, with SIGTERM delivered on its stop
// channel while both workers are held and a third request is queued.
// A request sent after the signal is refused with the typed draining
// error; once the workers are released every admitted request completes
// with the reference bytes, and Run returns nil.
func TestRunDrainsOnSignal(t *testing.T) {
	req := Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 1}
	want := referenceBody(t, req)

	gate := newWorkerGate(2)
	s := New(Config{Pool: 2, QueueDepth: 4, Log: io.Discard, faultHook: gate.hook})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	client := &Client{BaseURL: "http://" + ln.Addr().String(), HTTPClient: noKeepAlive(), MaxAttempts: 1}
	stop := make(chan os.Signal, 1)
	runDone := make(chan struct{})
	var runErr error
	go func() {
		runErr = s.Run(ln, stop, 30*time.Second)
		close(runDone)
	}()
	defer func() {
		select {
		case stop <- syscall.SIGTERM:
		default:
		}
		gate.open()
		<-runDone
	}()

	admitted := []<-chan evalResult{evalAsync(client, req), evalAsync(client, req)}
	gate.awaitHeld(t, 2)
	admitted = append(admitted, evalAsync(client, req))
	waitUntil(t, "the third request is queued", func() bool { return s.Snapshot().Admitted == 3 })

	stop <- syscall.SIGTERM
	waitUntil(t, "the drain begins", s.Draining)
	_, err = client.EvalBytes(context.Background(), req)
	if e, ok := err.(*Error); !ok || e.Code != CodeDraining || e.HTTPStatus() != http.StatusServiceUnavailable || e.RetryAfterMs <= 0 {
		t.Fatalf("request after SIGTERM: got %v, want a typed 503 draining error with a retry hint", err)
	}

	gate.open()
	for i, ch := range admitted {
		r := <-ch
		if r.err != nil {
			t.Fatalf("admitted request %d failed during the drain: %v", i, r.err)
		}
		if !bytes.Equal(r.body, want) {
			t.Errorf("admitted request %d: response during the drain differs from the reference", i)
		}
	}
	<-runDone
	if runErr != nil {
		t.Fatalf("Run: %v", runErr)
	}
	snap := s.Snapshot()
	if snap.Admitted != 3 || snap.Completed != 3 || snap.RejectedDraining != 1 {
		t.Errorf("admitted %d completed %d refused %d, want 3, 3, 1", snap.Admitted, snap.Completed, snap.RejectedDraining)
	}
}

// TestDeadlinePropagation: a request whose budget cannot cover its
// simulation gets a typed deadline error — never a partial verdict.
func TestDeadlinePropagation(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":25,"deadline_ms":1}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	e := decodeError(t, w)
	if e.Code != CodeDeadline {
		t.Errorf("code %s, want %s", e.Code, CodeDeadline)
	}
	if e.Retryable() {
		t.Error("deadline exhaustion must not invite a same-budget retry")
	}
	// The worker eventually notices the cancelled context; the pool must
	// still serve the next request correctly afterwards.
	w = postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":2}`)
	if w.Code != http.StatusOK {
		t.Fatalf("pool wedged after deadline: status %d %s", w.Code, w.Body.String())
	}
}

// TestEnvPoisonQuarantine: a panicking evaluation yields a typed
// retryable error, its environments are dropped with it, and the next
// request on the same worker still gets byte-correct output.
func TestEnvPoisonQuarantine(t *testing.T) {
	poisonSeed := int64(666)
	var cfg Config
	cfg.Pool = 1
	cfg.faultHook = func(req *Request, polls int) {
		if req.Seed == poisonSeed && polls == 3 {
			panic("chaos: poisoned environment")
		}
	}
	s := newTestServer(t, cfg)

	before := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":2}`)
	if before.Code != http.StatusOK {
		t.Fatalf("baseline failed: %d", before.Code)
	}

	w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":666,"reps":2}`)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	e := decodeError(t, w)
	if e.Code != CodeEnvPoisoned {
		t.Errorf("code %s, want %s", e.Code, CodeEnvPoisoned)
	}
	if !e.Retryable() {
		t.Error("a poisoned environment is replaced; retry must be invited")
	}
	if got := s.Snapshot().EnvReplaced; got != 1 {
		t.Errorf("EnvReplaced=%d, want 1", got)
	}

	after := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":2}`)
	if after.Code != http.StatusOK {
		t.Fatalf("replacement environment broken: %d", after.Code)
	}
	if !bytes.Equal(after.Body.Bytes(), before.Body.Bytes()) {
		t.Error("response after environment replacement differs from baseline")
	}
}

// TestBreakerOpensAndRecovers drives the breaker through its full
// cycle: consecutive poisonings open it, admissions are refused typed
// and retryable, the cooldown lets a probe through, and a success
// closes it.
func TestBreakerOpensAndRecovers(t *testing.T) {
	poison := true
	var cfg Config
	cfg.Pool = 1
	cfg.breakerThreshold = 2
	cfg.faultHook = func(req *Request, polls int) {
		if poison && req.Seed == 666 {
			panic("chaos: poisoned environment")
		}
	}
	s := newTestServer(t, cfg)
	// Shorten the breakerCooldown constant for this server only; no
	// request has reached the breaker yet.
	s.breaker.cooldown = 50 * time.Millisecond

	for i := 0; i < 2; i++ {
		w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":666,"reps":1}`)
		if w.Code != http.StatusInternalServerError {
			t.Fatalf("poison %d: status %d", i, w.Code)
		}
	}
	w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":1}`)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("breaker did not open: status %d", w.Code)
	}
	e := decodeError(t, w)
	if e.Code != CodeBreakerOpen || !e.Retryable() || e.RetryAfterMs <= 0 {
		t.Errorf("got %s retryable=%v retryAfter=%d", e.Code, e.Retryable(), e.RetryAfterMs)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker rejection without Retry-After header")
	}

	poison = false
	time.Sleep(60 * time.Millisecond)
	w = postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("probe after cooldown failed: status %d %s", w.Code, w.Body.String())
	}
	w = postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":42,"reps":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("breaker did not close after probe: status %d", w.Code)
	}
}

func TestStatszAndHealthz(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	if w := postEval(t, s, `{"attack":"loopscan","defense":"chrome","seed":1,"reps":1}`); w.Code != http.StatusOK {
		t.Fatalf("eval: %d", w.Code)
	}
	for _, path := range []string{"/healthz", "/readyz", "/statsz"} {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Errorf("%s: %d", path, w.Code)
		}
	}
	var snap Stats
	req := httptest.NewRequest(http.MethodGet, "/statsz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	if snap.Admitted != 1 || snap.Completed != 1 || snap.Pool != 1 {
		t.Errorf("statsz counters off: %+v", snap)
	}
}
