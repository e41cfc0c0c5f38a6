package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"jskernel/internal/expr/runner"
	"jskernel/internal/telemetry"
)

// Smoke is the CI smoke suite for the service layer, run in-process by
// `jsk-serve -smoke`. It boots real servers on loopback listeners and
// drives them through the robustness contract end to end:
//
//  1. determinism — the same (body, seed) yields byte-identical
//     responses across concurrent duplicate requests, across pool
//     widths, and across repeated rounds;
//  2. overload — a saturated pool sheds explicitly with typed 429s and
//     Retry-After hints while every admitted request still answers
//     correctly (no silent drops: completions + typed rejections add up);
//  3. drain — SIGTERM lets in-flight requests finish, rejects new ones
//     with a typed draining error, and stops within the timeout;
//  4. telemetry — /metricsz scraped mid-load passes the in-repo
//     OpenMetrics parser, every verdict streamed on /v1/events agrees
//     byte-for-byte with its response's forensics, and the campaign
//     fixture (a probe split across requests, each individually clean)
//     is flagged by the cross-request ledger.
//
// ledgerReport, when non-empty, receives the final forensics ledger
// JSON as a CI artifact. Any violation returns an error; CI fails the
// stage on non-zero exit.
func Smoke(out io.Writer, ledgerReport string) error {
	if err := smokeDeterminism(out); err != nil {
		return fmt.Errorf("determinism: %w", err)
	}
	if err := smokeOverload(out); err != nil {
		return fmt.Errorf("overload: %w", err)
	}
	if err := smokeDrain(out); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := smokeTelemetry(out, ledgerReport); err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	fmt.Fprintln(out, "serve smoke: all stages passed")
	return nil
}

// smokeCells is the request mix: timing and CVE rows, traced and
// untraced, with forensics on and off, across kernel and non-kernel
// defenses.
func smokeCells() []Request {
	return []Request{
		{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 2, Trace: true, Forensics: true},
		{Attack: "loopscan", Defense: "chrome", Seed: 42, Reps: 2},
		{Attack: "cache-attack", Defense: "jskernel-chrome", Seed: 7, Reps: 2, Forensics: true},
		{Attack: "CVE-2018-5092", Defense: "jskernel-chrome", Seed: 42, Trace: true},
		{Attack: "CVE-2018-5092", Defense: "chrome", Seed: 42, Forensics: true},
		{Attack: "clock-edge", Defense: "deterfox", Seed: 11, Reps: 2},
	}
}

// startLoopback boots a server on an ephemeral loopback port and
// returns it with a ready client.
func startLoopback(cfg Config) (*Server, *Client, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("listen: %v", err)
	}
	s := New(cfg)
	s.Start(ln)
	return s, &Client{BaseURL: "http://" + ln.Addr().String()}, nil
}

type smokeResult struct {
	body []byte
	err  error
}

// smokeDeterminism checks response-byte stability three ways: duplicate
// concurrent requests agree, a wide pool agrees with a single worker,
// and repeated rounds on the same worker (rounds 1..3) agree with the
// first.
func smokeDeterminism(out io.Writer) error {
	cells := smokeCells()

	// Wide pool, duplicates in flight concurrently.
	wide, wideClient, err := startLoopback(Config{Pool: 4, QueueDepth: 32, Telemetry: true, Log: io.Discard})
	if err != nil {
		return err
	}
	defer shutdownQuiet(wide)
	const dup = 2
	n := len(cells) * dup
	results := runner.Map(4, n, func(i int) smokeResult {
		body, err := wideClient.EvalBytes(context.Background(), cells[i%len(cells)])
		return smokeResult{body: body, err: err}
	})
	for i, r := range results {
		if r.err != nil {
			return fmt.Errorf("wide pool request %d: %v", i, r.err)
		}
	}
	for i := len(cells); i < n; i++ {
		if !bytes.Equal(results[i].body, results[i%len(cells)].body) {
			return fmt.Errorf("concurrent duplicates of cell %d disagree", i%len(cells))
		}
	}

	// Single worker, every cell three rounds over. Bytes must match the
	// wide pool's exactly.
	narrow, narrowClient, err := startLoopback(Config{Pool: 1, QueueDepth: 32, Log: io.Discard})
	if err != nil {
		return err
	}
	defer shutdownQuiet(narrow)
	for round := 1; round <= 3; round++ {
		for i, req := range cells {
			body, err := narrowClient.EvalBytes(context.Background(), req)
			if err != nil {
				return fmt.Errorf("narrow pool round %d cell %d: %v", round, i, err)
			}
			if !bytes.Equal(body, results[i].body) {
				return fmt.Errorf("cell %d differs between pool widths (round %d)", i, round)
			}
		}
	}
	fmt.Fprintf(out, "serve smoke: determinism ok (%d cells, %d concurrent, 3 rounds)\n", len(cells), n)
	return nil
}

// smokeOverload saturates a pool-1, queue-1 server and checks the shed
// contract: rejections are typed 429s with retry hints, nothing is
// dropped silently, and every success matches the unloaded reference.
func smokeOverload(out io.Writer) error {
	ref, refClient, err := startLoopback(Config{Pool: 1, QueueDepth: 32, Log: io.Discard})
	if err != nil {
		return err
	}
	defer shutdownQuiet(ref)
	req := Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 2}
	want, err := refClient.EvalBytes(context.Background(), req)
	if err != nil {
		return fmt.Errorf("reference run: %v", err)
	}

	s, client, err := startLoopback(Config{Pool: 1, QueueDepth: 1, Log: io.Discard})
	if err != nil {
		return err
	}
	defer shutdownQuiet(s)
	const total = 16
	// No client retries: we are counting first-attempt outcomes.
	client.MaxAttempts = 1
	results := runner.Map(8, total, func(int) smokeResult {
		body, err := client.EvalBytes(context.Background(), req)
		return smokeResult{body: body, err: err}
	})
	var ok, shed int
	for i, r := range results {
		switch {
		case r.err == nil:
			if !bytes.Equal(r.body, want) {
				return fmt.Errorf("request %d: response under overload differs from reference", i)
			}
			ok++
		default:
			e, isTyped := r.err.(*Error)
			if !isTyped {
				return fmt.Errorf("request %d: untyped failure under overload: %v", i, r.err)
			}
			if e.Code != CodeOverloaded {
				return fmt.Errorf("request %d: expected overloaded, got %s", i, e.Code)
			}
			if e.RetryAfterMs <= 0 {
				return fmt.Errorf("request %d: 429 without a Retry-After hint", i)
			}
			shed++
		}
	}
	if shed == 0 {
		return fmt.Errorf("pool-1 queue-1 server absorbed %d concurrent requests without shedding", total)
	}
	if ok+shed != total {
		return fmt.Errorf("silent drop: %d ok + %d shed != %d sent", ok, shed, total)
	}
	fmt.Fprintf(out, "serve smoke: overload ok (%d/%d served correctly, %d shed with typed 429+Retry-After)\n", ok, total, shed)
	return nil
}

// smokeDrain boots a daemon exactly as cmd/jsk-serve does — Run plus a
// SIGTERM channel — puts requests in flight, delivers a real SIGTERM to
// this process, and requires: Run returns cleanly within the drain
// timeout, every in-flight request completes or fails typed, and a
// request sent after the drain began is refused with the typed draining
// error (or the closed listener).
func smokeDrain(out io.Writer) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %v", err)
	}
	s := New(Config{Pool: 2, QueueDepth: 16, Log: io.Discard})
	client := &Client{BaseURL: "http://" + ln.Addr().String(), MaxAttempts: 1}
	req := Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 42, Reps: 2}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM)
	defer signal.Stop(stop)

	const inflight = 4
	start := time.Now()
	// Thunk layout: 0 runs the daemon loop, 1..inflight are client
	// requests, the last waits for admissions then delivers SIGTERM.
	results := runner.Map(inflight+2, inflight+2, func(i int) smokeResult {
		switch i {
		case 0:
			return smokeResult{err: s.Run(ln, stop, 30*time.Second)}
		case inflight + 1:
			bound := time.Now().Add(10 * time.Second)
			for s.Snapshot().Admitted < 1 && time.Now().Before(bound) {
				time.Sleep(5 * time.Millisecond)
			}
			syscall.Kill(os.Getpid(), syscall.SIGTERM)
			return smokeResult{}
		default:
			waitReady(client.BaseURL)
			body, err := client.EvalBytes(context.Background(), req)
			return smokeResult{body: body, err: err}
		}
	})
	if results[0].err != nil {
		return fmt.Errorf("drain did not complete cleanly: %v", results[0].err)
	}
	elapsed := time.Since(start)
	var served, refused int
	for i := 1; i <= inflight; i++ {
		r := results[i]
		switch {
		case r.err == nil:
			served++
		default:
			e, isTyped := r.err.(*Error)
			if isTyped && (e.Code == CodeDraining || e.Code == CodeOverloaded) {
				refused++
				continue
			}
			// The listener may already be gone for late requests; a
			// transport error is a typed, retryable refusal too.
			if _, isTransport := r.err.(*transportError); isTransport {
				refused++
				continue
			}
			return fmt.Errorf("in-flight request %d failed untyped during drain: %v", i, r.err)
		}
	}
	if served == 0 {
		return fmt.Errorf("drain served none of the in-flight requests")
	}
	// After drain, new work must be refused, not half-served.
	if _, err := client.EvalBytes(context.Background(), req); err == nil {
		return fmt.Errorf("request after drain completed was served")
	}
	fmt.Fprintf(out, "serve smoke: drain ok (%d served, %d refused typed, drained in %v)\n", served, refused, elapsed.Round(time.Millisecond))
	return nil
}

// smokeTelemetry exercises the live observability plane against the
// smoke matrix: a subscriber on /v1/events collects every streamed
// forensic verdict while the cells run and /metricsz is scraped
// mid-load; afterwards each streamed summary must byte-match the
// forensics in the corresponding response body (100% agreement), the
// campaign fixture must be flagged by the ledger while staying clean
// per-request, and the drain must end the event stream cleanly.
func smokeTelemetry(out io.Writer, ledgerReport string) error {
	s, client, err := startLoopback(Config{Pool: 2, QueueDepth: 32, Telemetry: true, Log: io.Discard})
	if err != nil {
		return err
	}
	shut := false
	defer func() {
		if !shut {
			shutdownQuiet(s)
		}
	}()

	// The live subscriber: collects streamed verdicts keyed by the
	// cell coordinate (unique per request in this stage).
	type streamed struct {
		summaries map[string]json.RawMessage
		campaigns int
		err       error
	}
	coord := func(attack, defense string, seed int64) string {
		return fmt.Sprintf("%s|%s|%d", attack, defense, seed)
	}
	subDone := make(chan streamed, 1)
	go func() {
		st := streamed{summaries: make(map[string]json.RawMessage)}
		st.err = client.Events(context.Background(), 0, func(ev StreamEvent) error {
			switch ev.Type {
			case telemetry.EventForensics:
				var fe struct {
					Attack  string          `json:"attack"`
					Defense string          `json:"defense"`
					Seed    int64           `json:"seed"`
					Summary json.RawMessage `json:"summary"`
				}
				if err := json.Unmarshal(ev.Data, &fe); err != nil {
					return fmt.Errorf("undecodable forensics event: %v", err)
				}
				st.summaries[coord(fe.Attack, fe.Defense, fe.Seed)] = fe.Summary
			case telemetry.EventCampaign:
				st.campaigns++
			}
			return nil
		})
		subDone <- st
	}()

	// Drive the matrix with forensics on, scraping /metricsz between
	// requests — every scrape must pass the self-check parser.
	scrape := func(when string) error {
		resp, err := http.Get(client.BaseURL + "/metricsz")
		if err != nil {
			return fmt.Errorf("scrape %s: %v", when, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return fmt.Errorf("scrape %s read: %v", when, err)
		}
		if _, err := telemetry.ParseExposition(string(body)); err != nil {
			return fmt.Errorf("scrape %s failed the OpenMetrics self-check: %v", when, err)
		}
		return nil
	}
	bodyForensics := make(map[string]json.RawMessage)
	for i, req := range smokeCells() {
		req.Forensics = true
		req.Tenant = "smoke"
		body, err := client.EvalBytes(context.Background(), req)
		if err != nil {
			return fmt.Errorf("cell %d: %v", i, err)
		}
		var resp struct {
			Forensics json.RawMessage `json:"forensics"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("cell %d: undecodable response: %v", i, err)
		}
		bodyForensics[coord(req.Attack, req.Defense, req.Seed)] = resp.Forensics
		if err := scrape(fmt.Sprintf("after cell %d", i)); err != nil {
			return err
		}
	}

	// The campaign fixture: one implicit-clock probe split across five
	// requests against a defended surface. Each request must stay clean
	// on its own; only the ledger sees the campaign.
	const probes = 5
	for i := 0; i < probes; i++ {
		req := Request{Attack: "loopscan", Defense: "jskernel-chrome", Seed: 9_000 + int64(i),
			Reps: 1, Forensics: true, Tenant: "smoke-campaign"}
		body, err := client.EvalBytes(context.Background(), req)
		if err != nil {
			return fmt.Errorf("campaign probe %d: %v", i, err)
		}
		var resp struct {
			Forensics struct {
				Flagged bool `json:"flagged"`
			} `json:"forensics"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("campaign probe %d: undecodable response: %v", i, err)
		}
		if resp.Forensics.Flagged {
			return fmt.Errorf("campaign probe %d flagged per-request — the fixture must stay under per-request thresholds", i)
		}
	}

	// Settle the plane, pull the ledger, keep it as the CI artifact.
	s.Plane().Barrier()
	resp, err := http.Get(client.BaseURL + "/ledgerz")
	if err != nil {
		return fmt.Errorf("ledgerz: %v", err)
	}
	ledgerBytes, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("ledgerz read: %v", err)
	}
	var ledger telemetry.LedgerReport
	if err := json.Unmarshal(ledgerBytes, &ledger); err != nil {
		return fmt.Errorf("ledgerz undecodable: %v", err)
	}
	campaign := false
	for _, e := range ledger.Entries {
		if e.Flagged && e.Tenant == "smoke-campaign" {
			campaign = true
		}
	}
	if !campaign {
		return fmt.Errorf("ledger missed the split campaign after %d individually-clean probes:\n%s", probes, ledgerBytes)
	}
	if ledgerReport != "" {
		if err := os.WriteFile(ledgerReport, ledgerBytes, 0o644); err != nil {
			return fmt.Errorf("writing ledger report: %v", err)
		}
	}

	// Drain; the subscriber must observe a clean end of stream.
	shut = true
	shutdownQuiet(s)
	st := <-subDone
	if st.err != nil {
		return fmt.Errorf("event stream ended uncleanly: %v", st.err)
	}

	// 100% agreement: every response's forensics has a byte-identical
	// streamed twin.
	keys := make([]string, 0, len(bodyForensics))
	for key := range bodyForensics {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		want := bodyForensics[key]
		got, ok := st.summaries[key]
		if !ok {
			return fmt.Errorf("cell %s: no streamed verdict (silent drop)", key)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("cell %s: streamed verdict disagrees with response forensics\nbody:   %s\nstream: %s", key, want, got)
		}
	}
	if st.campaigns == 0 {
		return fmt.Errorf("campaign finding never reached /v1/events")
	}
	fmt.Fprintf(out, "serve smoke: telemetry ok (%d verdicts streamed in agreement, %d scrapes parsed, campaign flagged by ledger, %d campaign events)\n",
		len(bodyForensics), len(bodyForensics), st.campaigns)
	return nil
}

// waitReady polls /healthz until the daemon answers (bounded), so
// clients racing the daemon's own startup don't misread "not yet
// listening" as a drain refusal.
func waitReady(baseURL string) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/healthz")
		if err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// shutdownQuiet tears down a smoke server, ignoring errors: smoke
// assertions live on the primary paths above.
func shutdownQuiet(s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.Shutdown(ctx)
}
