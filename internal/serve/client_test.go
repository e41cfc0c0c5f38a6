package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedHandler answers each attempt from a fixed script of typed
// responses, then succeeds.
func scriptedServer(t *testing.T, script []*Error) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var attempts atomic.Int64
	srv := &Server{cfg: Config{}} // only for writeJSON/writeError helpers
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := int(attempts.Add(1)) - 1
		if n < len(script) {
			srv.writeError(w, script[n])
			return
		}
		srv.writeJSON(w, http.StatusOK, &Response{Attack: "loopscan", Defense: "chrome", Kind: "timing", Defended: true})
	})
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts, &attempts
}

// TestClientRetriesTransient: transient rejections are retried on the
// deterministic exponential schedule, honoring the server's larger
// Retry-After hint when present.
func TestClientRetriesTransient(t *testing.T) {
	overloaded := errf(CodeOverloaded, "queue full")
	overloaded.RetryAfterMs = 250 // larger than the 100ms base backoff
	ts, attempts := scriptedServer(t, []*Error{
		overloaded,
		errf(CodeDraining, "draining"), // no hint: pure exponential
	})
	var waits []time.Duration
	c := &Client{
		BaseURL:     ts.URL,
		MaxAttempts: 4,
		sleep:       func(d time.Duration) { waits = append(waits, d) },
	}
	resp, err := c.Eval(context.Background(), Request{Attack: "loopscan", Defense: "chrome"})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	if !resp.Defended {
		t.Error("lost the response payload across retries")
	}
	if got := attempts.Load(); got != 3 {
		t.Errorf("attempts=%d, want 3", got)
	}
	want := []time.Duration{250 * time.Millisecond, 200 * time.Millisecond}
	if len(waits) != len(want) {
		t.Fatalf("waits=%v, want %v", waits, want)
	}
	for i := range want {
		if waits[i] != want[i] {
			t.Errorf("wait %d = %v, want %v (hint-aware exponential)", i, waits[i], want[i])
		}
	}
}

// TestClientStopsOnPermanent: a permanent failure is surfaced
// immediately — no retry, no sleep.
func TestClientStopsOnPermanent(t *testing.T) {
	ts, attempts := scriptedServer(t, []*Error{errf(CodeUnknownAttack, "nope")})
	c := &Client{
		BaseURL: ts.URL,
		sleep:   func(time.Duration) { t.Error("slept before a permanent failure") },
	}
	_, err := c.Eval(context.Background(), Request{Attack: "nope", Defense: "chrome"})
	e, ok := err.(*Error)
	if !ok || e.Code != CodeUnknownAttack {
		t.Fatalf("want typed unknown_attack, got %v", err)
	}
	if got := attempts.Load(); got != 1 {
		t.Errorf("attempts=%d, want 1 (no retry of permanent failures)", got)
	}
}

// TestClientRetriesTransport: failures below HTTP (dead listener) are
// transient; the client retries and succeeds once the server exists.
func TestClientRetriesTransport(t *testing.T) {
	c := &Client{
		BaseURL:     "http://127.0.0.1:1", // nothing listens on port 1
		MaxAttempts: 2,
		sleep:       func(time.Duration) {},
	}
	_, err := c.Eval(context.Background(), Request{Attack: "loopscan", Defense: "chrome"})
	if err == nil {
		t.Fatal("expected transport failure")
	}
	re, ok := err.(RetryableError)
	if !ok || !re.Retryable() {
		t.Fatalf("transport failure must be typed retryable, got %T: %v", err, err)
	}
}

// TestClientBackoffSchedule pins the full deterministic schedule: pure
// doubling from the 100 ms base, capped at 5 s, hint taken when larger.
func TestClientBackoffSchedule(t *testing.T) {
	cases := []struct {
		attempt int
		hintMs  int64
		want    time.Duration
	}{
		{1, 0, 100 * time.Millisecond},
		{2, 0, 200 * time.Millisecond},
		{3, 0, 400 * time.Millisecond},
		{6, 0, 3200 * time.Millisecond},
		{7, 0, 5 * time.Second},          // capped
		{10, 0, 5 * time.Second},         // stays capped
		{1, 300, 300 * time.Millisecond}, // hint dominates
		{3, 300, 400 * time.Millisecond}, // schedule dominates
		{1, 60000, 5 * time.Second},      // hint capped too
	}
	for _, tc := range cases {
		if got := backoffWait(tc.attempt, tc.hintMs); got != tc.want {
			t.Errorf("backoffWait(%d, %d) = %v, want %v", tc.attempt, tc.hintMs, got, tc.want)
		}
	}
}

// TestClientEvalBytesRetries: EvalBytes retries a transient refusal up
// to MaxAttempts and returns the successful attempt's body verbatim.
// MaxAttempts 1 makes exactly one attempt and surfaces the refusal.
func TestClientEvalBytesRetries(t *testing.T) {
	body := []byte(`{"attack":"loopscan","defense":"chrome","kind":"timing","seed":0,"defended":true,"table":""}` + "\n")
	for _, tc := range []struct {
		maxAttempts int
		attempts    int64
	}{{2, 2}, {1, 1}} {
		var attempts atomic.Int64
		srv := &Server{} // only for the writeError helper
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if attempts.Add(1) == 1 {
				srv.writeError(w, errf(CodeDraining, "draining"))
				return
			}
			w.Write(body)
		}))
		slept := 0
		c := &Client{BaseURL: ts.URL, MaxAttempts: tc.maxAttempts, sleep: func(time.Duration) { slept++ }}
		got, err := c.EvalBytes(context.Background(), Request{Attack: "loopscan", Defense: "chrome"})
		ts.Close()
		if n := attempts.Load(); n != tc.attempts || slept != int(tc.attempts)-1 {
			t.Errorf("MaxAttempts %d: %d attempts and %d waits, want %d and %d",
				tc.maxAttempts, n, slept, tc.attempts, tc.attempts-1)
		}
		if tc.maxAttempts == 1 {
			if e, ok := err.(*Error); !ok || e.Code != CodeDraining {
				t.Errorf("MaxAttempts 1: got %q, %v; want the typed draining refusal", got, err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("MaxAttempts 2: got %q, %v; want the 200 body %q", got, err, body)
		}
	}
}

// TestChannelJSONRoundTrip: a Channel decodes from its own encoding for
// finite and non-finite effect sizes alike.
func TestChannelJSONRoundTrip(t *testing.T) {
	for _, d := range []float64{-0.5, math.Inf(1), math.Inf(-1), math.NaN()} {
		in := Channel{Channel: "loop", MeanA: 3, MeanB: 4.5, CohensD: d, Leaks: true}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("marshal %v: %v", d, err)
		}
		var out Channel
		if err := json.Unmarshal(b, &out); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		same := out.CohensD == d || (math.IsNaN(d) && math.IsNaN(out.CohensD))
		out.CohensD, in.CohensD = 0, 0
		if !same || out != in {
			t.Fatalf("round trip of %s gave %+v (cohens_d %v)", b, out, d)
		}
	}
}

// TestClientEvalNonFiniteEffect: Client.Eval decodes a live response
// whose channel carries an infinite Cohen's d (a zero-variance channel
// with distinct means; the cache attack against undefended Chrome at
// seed 42, reps 1 produces one).
func TestClientEvalNonFiniteEffect(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	cl := &Client{BaseURL: srv.URL, MaxAttempts: 1}
	resp, err := cl.Eval(context.Background(), Request{Attack: "cache-attack", Defense: "chrome", Seed: 42, Reps: 1})
	if err != nil {
		t.Fatalf("eval: %v", err)
	}
	inf := false
	for _, c := range resp.Channels {
		inf = inf || math.IsInf(c.CohensD, 1)
	}
	if !inf {
		t.Fatalf("no channel with cohens_d +Inf in %+v", resp.Channels)
	}
}
