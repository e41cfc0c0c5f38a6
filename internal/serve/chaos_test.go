package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"jskernel/internal/expr/runner"
	"jskernel/internal/fault"
	"jskernel/internal/telemetry"
)

// TestServiceChaos is the service-layer chaos harness: it points
// internal/fault's service plan at a live daemon and holds the chaos
// SLO from the issue —
//
//   - zero wrong verdicts: every successful response byte-matches its
//     fault-free reference, whatever faults hit its neighbors;
//   - zero silent drops: every request ends in success or a typed
//     error (transport errors from deliberately-broken clients count as
//     their own fault outcome);
//   - poisoned environments are quarantined by replacement without
//     affecting concurrent requests.
//
// Fault placement comes from fault.NewServiceInjector, so the run is
// reproducible: the same plan and seeds fault the same requests.
func TestServiceChaos(t *testing.T) {
	plan, err := fault.ServicePlanByName("svc-mixed")
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.NewServiceInjector(plan, 1)
	const (
		n        = 48
		seedBase = int64(10_000)
	)
	reqFor := func(i int) Request {
		return Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: seedBase + int64(i), Reps: 1}
	}

	// Fault-free references for every index, from a plain server.
	ref, refClient := chaosServer(t, Config{Pool: 2, QueueDepth: 64})
	defer chaosShutdown(t, ref)
	refs := make([][]byte, n)
	for i := 0; i < n; i++ {
		body, err := refClient.EvalBytes(context.Background(), reqFor(i))
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = body
	}

	// The chaos target: env-panic faults fire from inside a running
	// simulation via the cancellation-poll hook, modelling a request
	// that poisons its environment mid-evaluation.
	cfg := Config{
		Pool:             2,
		QueueDepth:       64,
		breakerThreshold: 1000, // breaker accounting is tested separately
		readTimeout:      300 * time.Millisecond,
		faultHook: func(req *Request, polls int) {
			idx := int(req.Seed - seedBase)
			if idx >= 0 && idx < n && polls == 4 && injector.Peek(idx) == fault.ServiceEnvPanic {
				panic(fmt.Sprintf("chaos: request %d poisons its environment", idx))
			}
		},
	}
	s, client := chaosServer(t, cfg)
	defer chaosShutdown(t, s)
	client.MaxAttempts = 1
	addr := strings.TrimPrefix(client.BaseURL, "http://")

	type outcome struct {
		kind fault.ServiceFault
		err  error
	}
	outcomes := runner.Map(8, n, func(i int) outcome {
		f := injector.Decide(i)
		switch f {
		case fault.ServiceDisconnect:
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(2*time.Millisecond, cancel)
			defer timer.Stop()
			defer cancel()
			body, err := client.EvalBytes(ctx, reqFor(i))
			if err == nil && !bytes.Equal(body, refs[i]) {
				return outcome{f, fmt.Errorf("request outran its disconnect but returned wrong bytes")}
			}
			return outcome{f, nil}
		case fault.ServiceStall:
			return outcome{f, slowLoris(addr)}
		case fault.ServiceMalformed:
			resp, err := http.Post(client.BaseURL+"/v1/eval", "application/json",
				strings.NewReader(`{"attack": <garbage`))
			if err != nil {
				return outcome{f, fmt.Errorf("malformed request transport: %v", err)}
			}
			defer resp.Body.Close()
			io.Copy(io.Discard, resp.Body)
			if resp.StatusCode != http.StatusBadRequest {
				return outcome{f, fmt.Errorf("malformed JSON got %d, want typed 400", resp.StatusCode)}
			}
			return outcome{f, nil}
		case fault.ServiceEnvPanic:
			_, err := client.EvalBytes(context.Background(), reqFor(i))
			e, ok := err.(*Error)
			if !ok {
				return outcome{f, fmt.Errorf("poisoning produced untyped outcome %v", err)}
			}
			if e.Code != CodeEnvPoisoned || !e.Retryable() {
				return outcome{f, fmt.Errorf("poisoning produced %s retryable=%v", e.Code, e.Retryable())}
			}
			return outcome{f, nil}
		default:
			body, err := client.EvalBytes(context.Background(), reqFor(i))
			if err != nil {
				return outcome{f, fmt.Errorf("healthy request failed: %v", err)}
			}
			if !bytes.Equal(body, refs[i]) {
				return outcome{f, fmt.Errorf("WRONG VERDICT: healthy response diverged from fault-free reference")}
			}
			return outcome{f, nil}
		}
	})

	perKind := map[fault.ServiceFault]int{}
	for i, o := range outcomes {
		perKind[o.kind]++
		if o.err != nil {
			t.Errorf("request %d (%v): %v", i, o.kind, o.err)
		}
	}
	counts := injector.Counts()
	t.Logf("chaos outcomes: healthy=%d %v", perKind[fault.ServiceNone], counts)
	if counts.Total() == 0 {
		t.Fatal("chaos run delivered zero faults — the SLO was never tested")
	}
	for _, k := range []fault.ServiceFault{fault.ServiceDisconnect, fault.ServiceStall, fault.ServiceMalformed, fault.ServiceEnvPanic} {
		if perKind[k] == 0 {
			t.Errorf("fault family %v never fired in %d requests; raise n or the rate", k, n)
		}
	}

	// Quarantine accounting: every poisoning replaced exactly one
	// environment, and no other request paid for it.
	snap := s.Snapshot()
	if snap.EnvReplaced != counts.EnvPanics {
		t.Errorf("EnvReplaced=%d, want %d (one replacement per poisoning)", snap.EnvReplaced, counts.EnvPanics)
	}

	// The pool is healthy after the storm: a fresh request still
	// byte-matches its reference on whatever environments survived.
	body, err := client.EvalBytes(context.Background(), reqFor(0))
	if err != nil {
		t.Fatalf("post-chaos probe: %v", err)
	}
	if !bytes.Equal(body, refs[0]) {
		t.Error("post-chaos probe diverged from reference")
	}
}

// TestTelemetryChaos points the svc-telemetry plan at a live daemon
// with the observability plane on and holds the telemetry SLO:
//
//   - zero wrong verdicts: every successful response byte-matches its
//     reference from a telemetry-OFF server — scrapes, slow event
//     consumers and neighboring faults never perturb response bytes;
//   - scrapes never block eval: /metricsz served concurrently with the
//     storm (and again mid-drain) always returns a complete exposition
//     that passes the self-check parser;
//   - slow consumers get gaps, not backpressure: subscribers that stop
//     reading fall behind the (deliberately tiny) replay ring and the
//     overrun surfaces as an explicit gap event — never as a stalled
//     flusher or a silently dropped finding.
func TestTelemetryChaos(t *testing.T) {
	plan, err := fault.ServicePlanByName("svc-telemetry")
	if err != nil {
		t.Fatal(err)
	}
	injector := fault.NewServiceInjector(plan, 1)
	const (
		n        = 48
		seedBase = int64(20_000)
	)
	reqFor := func(i int) Request {
		return Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: seedBase + int64(i), Reps: 1}
	}

	// References come from a telemetry-OFF server: byte-equality under
	// fire is then also the plane-on/plane-off identity.
	ref, refClient := chaosServer(t, Config{Pool: 2, QueueDepth: 64})
	defer chaosShutdown(t, ref)
	refs := make([][]byte, n)
	for i := 0; i < n; i++ {
		body, err := refClient.EvalBytes(context.Background(), reqFor(i))
		if err != nil {
			t.Fatalf("reference %d: %v", i, err)
		}
		refs[i] = body
	}

	cfg := Config{
		Pool:               2,
		QueueDepth:         64,
		breakerThreshold:   1000,
		readTimeout:        300 * time.Millisecond,
		Telemetry:          true,
		telemetryEventRing: 8, // tiny on purpose: lagging consumers must overrun it
		faultHook: func(req *Request, polls int) {
			idx := int(req.Seed - seedBase)
			if idx >= 0 && idx < n && polls == 4 && injector.Peek(idx) == fault.ServiceEnvPanic {
				panic(fmt.Sprintf("chaos: request %d poisons its environment", idx))
			}
		},
	}
	s, client := chaosServer(t, cfg)
	shut := false
	defer func() {
		if !shut {
			chaosShutdown(t, s)
		}
	}()
	client.MaxAttempts = 1

	// Slow-consumer connections opened during the storm: each subscribes
	// to /v1/events, reads the response head, then stops reading forever.
	var connMu sync.Mutex
	var lazyConns []net.Conn
	defer func() {
		connMu.Lock()
		defer connMu.Unlock()
		for _, c := range lazyConns {
			c.Close()
		}
	}()
	addr := strings.TrimPrefix(client.BaseURL, "http://")
	lazySubscribe := func() error {
		conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			return fmt.Errorf("slow consumer dial: %v", err)
		}
		req := "GET /v1/events HTTP/1.1\r\nHost: chaos\r\nAccept: text/event-stream\r\n\r\n"
		if _, err := io.WriteString(conn, req); err != nil {
			conn.Close()
			return fmt.Errorf("slow consumer send: %v", err)
		}
		// Read just the status line to prove the stream opened, then go
		// silent: from here on this subscriber applies zero demand.
		buf := make([]byte, 64)
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(buf); err != nil {
			conn.Close()
			return fmt.Errorf("slow consumer read head: %v", err)
		}
		connMu.Lock()
		lazyConns = append(lazyConns, conn)
		connMu.Unlock()
		return nil
	}
	scrape := func() error {
		resp, err := http.Get(client.BaseURL + "/metricsz")
		if err != nil {
			return fmt.Errorf("scrape transport: %v", err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("scrape read: %v", err)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("scrape status %d", resp.StatusCode)
		}
		if _, err := telemetry.ParseExposition(string(body)); err != nil {
			return fmt.Errorf("mid-storm exposition failed self-check: %v", err)
		}
		return nil
	}

	type outcome struct {
		kind fault.ServiceFault
		err  error
	}
	outcomes := runner.Map(8, n, func(i int) outcome {
		f := injector.Decide(i)
		checkEval := func() error {
			body, err := client.EvalBytes(context.Background(), reqFor(i))
			if err != nil {
				return fmt.Errorf("eval failed: %v", err)
			}
			if !bytes.Equal(body, refs[i]) {
				return fmt.Errorf("WRONG VERDICT: response diverged from telemetry-off reference")
			}
			return nil
		}
		switch f {
		case fault.ServiceDisconnect:
			ctx, cancel := context.WithCancel(context.Background())
			timer := time.AfterFunc(2*time.Millisecond, cancel)
			defer timer.Stop()
			defer cancel()
			body, err := client.EvalBytes(ctx, reqFor(i))
			if err == nil && !bytes.Equal(body, refs[i]) {
				return outcome{f, fmt.Errorf("request outran its disconnect but returned wrong bytes")}
			}
			return outcome{f, nil}
		case fault.ServiceEnvPanic:
			_, err := client.EvalBytes(context.Background(), reqFor(i))
			e, ok := err.(*Error)
			if !ok {
				return outcome{f, fmt.Errorf("poisoning produced untyped outcome %v", err)}
			}
			if e.Code != CodeEnvPoisoned || !e.Retryable() {
				return outcome{f, fmt.Errorf("poisoning produced %s retryable=%v", e.Code, e.Retryable())}
			}
			return outcome{f, nil}
		case fault.ServiceScrape:
			// Scrape racing the eval: both must hold simultaneously.
			scrapeDone := make(chan error, 1)
			go func() { scrapeDone <- scrape() }()
			if err := checkEval(); err != nil {
				<-scrapeDone
				return outcome{f, err}
			}
			return outcome{f, <-scrapeDone}
		case fault.ServiceSlowEvents:
			if err := lazySubscribe(); err != nil {
				return outcome{f, err}
			}
			return outcome{f, checkEval()}
		default:
			return outcome{f, checkEval()}
		}
	})

	perKind := map[fault.ServiceFault]int{}
	for i, o := range outcomes {
		perKind[o.kind]++
		if o.err != nil {
			t.Errorf("request %d (%v): %v", i, o.kind, o.err)
		}
	}
	counts := injector.Counts()
	t.Logf("telemetry chaos outcomes: healthy=%d %v", perKind[fault.ServiceNone], counts)
	if counts.Total() == 0 {
		t.Fatal("chaos run delivered zero faults — the SLO was never tested")
	}
	for _, k := range []fault.ServiceFault{fault.ServiceDisconnect, fault.ServiceEnvPanic, fault.ServiceScrape, fault.ServiceSlowEvents} {
		if perKind[k] == 0 {
			t.Errorf("fault family %v never fired in %d requests; raise n or the rate", k, n)
		}
	}

	// Zero silent drops: every completed evaluation's forensic verdict
	// reached the hub, whatever the subscribers were doing. Disconnected
	// clients may or may not have completed server-side; poisoned runs
	// never publish.
	s.Plane().Barrier()
	published, _ := s.Plane().Hub.Counts()
	minWant := uint64(perKind[fault.ServiceNone] + perKind[fault.ServiceScrape] + perKind[fault.ServiceSlowEvents])
	maxWant := minWant + counts.Disconnects
	if got := published[telemetry.EventForensics]; got < minWant || got > maxWant {
		t.Errorf("published %d forensic verdicts, want %d..%d — findings dropped or duplicated", got, minWant, maxWant)
	}

	// Gaps, not backpressure: with an 8-slot ring and ~2 events per
	// request, a from-zero replay must overrun the ring and say so
	// explicitly.
	evs, gap := s.Plane().Hub.Since(0, 0)
	if gap == nil {
		t.Errorf("ring overrun produced no gap event (ring=8, %d events live)", len(evs))
	} else if gap.To == 0 || len(evs) == 0 {
		t.Errorf("gap %+v with %d replayable events — resume point lost", gap, len(evs))
	}

	// Scrape during drain: shut the server down while scraping in a
	// loop. Every scrape that completes at the transport level must
	// still pass the parser; the listener closing ends the loop.
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()
	shut = true
	for {
		resp, err := http.Get(client.BaseURL + "/metricsz")
		if err != nil {
			break // listener gone: drain finished ahead of this scrape
		}
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			break
		}
		if _, perr := telemetry.ParseExposition(string(body)); perr != nil {
			t.Errorf("mid-drain exposition failed self-check: %v", perr)
			break
		}
		select {
		case err := <-shutdownDone:
			if err != nil {
				t.Fatalf("shutdown under scrape load: %v", err)
			}
			return
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown under scrape load: %v", err)
	}
}

// chaosServer boots a server on a loopback listener for the chaos and
// overload tests.
func chaosServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	if cfg.Log == nil {
		cfg.Log = io.Discard
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	s := New(cfg)
	s.Start(ln)
	return s, &Client{BaseURL: "http://" + ln.Addr().String()}
}

func chaosShutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// slowLoris opens a raw connection and trickles an eval request one
// byte at a time, far slower than the server's read bound. Success is
// the server cutting the connection off without disturbing neighbors;
// failure is the trickle being allowed to run past the bound.
func slowLoris(addr string) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("slow-loris dial: %v", err)
	}
	defer conn.Close()
	head := "POST /v1/eval HTTP/1.1\r\nHost: chaos\r\nContent-Type: application/json\r\nContent-Length: 400\r\n\r\n"
	if _, err := io.WriteString(conn, head); err != nil {
		// Connection refused to even take headers — already cut off.
		return nil
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := io.WriteString(conn, "{"); err != nil {
			return nil // server cut the stalled connection: contract held
		}
		// A ReadTimeout'd connection may also surface as a read EOF.
		conn.SetReadDeadline(time.Now().Add(10 * time.Millisecond))
		buf := make([]byte, 256)
		if _, err := conn.Read(buf); err == io.EOF {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("slow-loris trickled for 5s without being cut off (ReadTimeout not enforced)")
}
