package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
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
		{"missing attack", `{"defense":"chrome"}`, http.StatusBadRequest, CodeBadRequest},
		{"missing defense", `{"attack":"loopscan"}`, http.StatusBadRequest, CodeBadRequest},
		{"unknown attack", `{"attack":"nope","defense":"chrome"}`, http.StatusNotFound, CodeUnknownAttack},
		{"unknown cve", `{"attack":"CVE-1999-0001","defense":"chrome"}`, http.StatusNotFound, CodeUnknownAttack},
		{"unknown defense", `{"attack":"loopscan","defense":"nope"}`, http.StatusNotFound, CodeUnknownDefense},
		{"reps over cap", `{"attack":"loopscan","defense":"chrome","reps":9999}`, http.StatusBadRequest, CodeBadRequest},
		{"negative deadline", `{"attack":"loopscan","defense":"chrome","deadline_ms":-1}`, http.StatusBadRequest, CodeBadRequest},
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
// retryable error, replaces the worker's environment, and the next
// request on the same worker still gets byte-correct output.
func TestEnvPoisonQuarantine(t *testing.T) {
	poisonSeed := int64(666)
	var cfg Config
	cfg.Pool = 1
	cfg.FaultHook = func(req *Request, polls int) {
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
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 50 * time.Millisecond
	cfg.FaultHook = func(req *Request, polls int) {
		if poison && req.Seed == 666 {
			panic("chaos: poisoned environment")
		}
	}
	s := newTestServer(t, cfg)

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
