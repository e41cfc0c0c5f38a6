package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// sseHandler scripts a sequence of /v1/events connections for resume
// tests: each call is one accepted connection, given the Last-Event-ID
// the client presented.
type sseHandler struct {
	conns atomic.Int64
	serve func(w http.ResponseWriter, conn int64, lastID string)
}

func (h *sseHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/v1/events" {
		http.NotFound(w, r)
		return
	}
	h.serve(w, h.conns.Add(1), r.Header.Get("Last-Event-ID"))
}

func writeSSE(w http.ResponseWriter, id int, typ, data string) {
	fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", id, typ, data)
	if f, ok := w.(http.Flusher); ok {
		f.Flush()
	}
}

// TestClientEventsResume: a mid-stream disconnect is transient — the
// client reconnects with Last-Event-ID and, even when the server
// replays an overlapping window, delivers every event exactly once and
// in order.
func TestClientEventsResume(t *testing.T) {
	h := &sseHandler{}
	h.serve = func(w http.ResponseWriter, conn int64, lastID string) {
		w.Header().Set("Content-Type", "text/event-stream")
		switch conn {
		case 1:
			if lastID != "" {
				t.Errorf("first connection sent Last-Event-ID %q", lastID)
			}
			for i := 1; i <= 3; i++ {
				writeSSE(w, i, "forensics", fmt.Sprintf(`{"n":%d}`, i))
			}
			// Drop the connection mid-stream, abruptly.
			panic(http.ErrAbortHandler)
		default:
			if lastID != "3" {
				t.Errorf("reconnect sent Last-Event-ID %q, want 3", lastID)
			}
			// Replay an overlapping window: resume must dedup 2 and 3.
			for i := 2; i <= 5; i++ {
				writeSSE(w, i, "forensics", fmt.Sprintf(`{"n":%d}`, i))
			}
			// Clean end of stream: the client treats this as drain.
		}
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	cl := &Client{BaseURL: srv.URL, sleep: func(time.Duration) {}}
	var got []uint64
	err := cl.Events(context.Background(), 0, func(ev StreamEvent) error {
		if ev.Type != "forensics" {
			t.Errorf("event %d type %q", ev.ID, ev.Type)
		}
		got = append(got, ev.ID)
		return nil
	})
	if err != nil {
		t.Fatalf("Events: %v", err)
	}
	want := []uint64{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("delivered IDs %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivered IDs %v, want %v — duplicates or gaps after resume", got, want)
		}
	}
	if h.conns.Load() != 2 {
		t.Errorf("%d connections, want 2", h.conns.Load())
	}
}

// TestClientEventsPermanentError: a typed permanent refusal — telemetry
// disabled server-side — must stop the client immediately, with no
// reconnect attempts.
func TestClientEventsPermanentError(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1}) // no plane
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	slept := 0
	cl := &Client{BaseURL: srv.URL, sleep: func(time.Duration) { slept++ }}
	err := cl.Events(context.Background(), 0, func(StreamEvent) error {
		t.Fatal("received an event from a telemetry-off server")
		return nil
	})
	e, ok := err.(*Error)
	if !ok {
		t.Fatalf("error %T (%v), want *Error", err, err)
	}
	if e.Code != CodeTelemetryOff || e.Retryable() {
		t.Fatalf("code %s retryable=%v, want permanent telemetry_off", e.Code, e.Retryable())
	}
	if slept != 0 {
		t.Errorf("client backed off %d times on a permanent error", slept)
	}
}

// TestClientEventsFailureBudget: persistent transport failure exhausts
// the attempt budget and surfaces the transient error.
func TestClientEventsFailureBudget(t *testing.T) {
	h := &sseHandler{}
	h.serve = func(w http.ResponseWriter, conn int64, lastID string) {
		panic(http.ErrAbortHandler)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	cl := &Client{BaseURL: srv.URL, MaxAttempts: 3, sleep: func(time.Duration) {}}
	err := cl.Events(context.Background(), 0, func(StreamEvent) error { return nil })
	if err == nil {
		t.Fatal("Events returned nil despite every connection dying")
	}
	re, ok := err.(RetryableError)
	if !ok || !re.Retryable() {
		t.Fatalf("exhausted-budget error %T not classified transient", err)
	}
	if h.conns.Load() != 3 {
		t.Errorf("%d connection attempts, want 3", h.conns.Load())
	}
}

// TestClientEventsLive: end-to-end against a real server — subscribe,
// drive evaluations, receive their forensic verdicts, then observe the
// stream end cleanly when the server drains.
func TestClientEventsLive(t *testing.T) {
	s := New(Config{Pool: 1, Telemetry: true, Log: io.Discard})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	cl := &Client{BaseURL: srv.URL}
	type reqEvent struct {
		RequestID string `json:"request_id"`
	}
	seen := make(map[string]int)
	forensics := 0
	done := make(chan error, 1)
	ready := make(chan struct{})
	go func() {
		first := true
		done <- cl.Events(context.Background(), 0, func(ev StreamEvent) error {
			if first {
				first = false
				close(ready)
			}
			if ev.Type != "forensics" {
				return nil
			}
			forensics++
			var re reqEvent
			if err := json.Unmarshal(ev.Data, &re); err != nil {
				return err
			}
			seen[re.RequestID]++
			return nil
		})
	}()

	const n = 4
	ids := make(map[string]bool)
	for i := 0; i < n; i++ {
		body := fmt.Sprintf(`{"attack":"loopscan","defense":"jskernel-chrome","seed":%d,"reps":1}`, i)
		resp, err := http.Post(srv.URL+"/v1/eval", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("eval %d: %d", i, resp.StatusCode)
		}
		ids[resp.Header.Get("Jsk-Request-Id")] = true
		resp.Body.Close()
	}

	select {
	case <-ready:
	case <-time.After(10 * time.Second):
		t.Fatal("subscriber never received an event")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-done:
		// Drain must read as a clean end of stream, not an error.
		if err != nil {
			t.Fatalf("Events after drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("stream did not end after server drain")
	}
	if forensics != n {
		t.Fatalf("received %d forensic events, want %d", forensics, n)
	}
	for id := range ids {
		if seen[id] != 1 {
			t.Errorf("request %s streamed %d verdicts, want exactly 1", id, seen[id])
		}
	}
}
