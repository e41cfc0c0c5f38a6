package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"jskernel/internal/telemetry"
)

func getPath(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// TestMetricszSelfChecks: the exposition must parse under the in-repo
// OpenMetrics parser — with telemetry off (service counters only), with
// telemetry on after traffic, and mid-drain.
func TestMetricszSelfChecks(t *testing.T) {
	plain := newTestServer(t, Config{Pool: 1})
	w := getPath(t, plain, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("plain metricsz: %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != telemetry.ContentType {
		t.Errorf("content type %q", ct)
	}
	if _, err := telemetry.ParseExposition(w.Body.String()); err != nil {
		t.Fatalf("plain exposition failed self-check: %v\n%s", err, w.Body.String())
	}

	telem := newTestServer(t, Config{Pool: 1, Telemetry: true})
	for i := 0; i < 2; i++ {
		if w := postEval(t, telem, `{"attack":"loopscan","defense":"jskernel-chrome","seed":3,"reps":1}`); w.Code != http.StatusOK {
			t.Fatalf("eval %d: %d", i, w.Code)
		}
	}
	w = getPath(t, telem, "/metricsz")
	fams, err := telemetry.ParseExposition(w.Body.String())
	if err != nil {
		t.Fatalf("telemetry exposition failed self-check: %v\n%s", err, w.Body.String())
	}
	byName := map[string]telemetry.Family{}
	for _, f := range fams {
		byName[f.Name] = f
	}
	for _, want := range []string{
		"jsk_serve_admitted", "jsk_serve_rejected", "jsk_serve_pool",
		"jsk_kernel_requests", "jsk_kernel_dispatch_latency_seconds", "jsk_kernel_api_enqueues",
		"jsk_span_phase_seconds", "jsk_spans", "jsk_telemetry_flush_items", "jsk_ledger_observed_requests",
	} {
		if _, ok := byName[want]; !ok {
			t.Errorf("family %s missing from exposition", want)
		}
	}
	if f := byName["jsk_kernel_requests"]; len(f.Samples) != 1 || f.Samples[0].Value != 2 {
		t.Errorf("jsk_kernel_requests = %+v, want 2", f.Samples)
	}
	if f := byName["jsk_span_phase_seconds"]; len(f.Samples) == 0 {
		t.Error("span phase histogram empty")
	}

	// Scrape during drain: begin shutdown, then scrape — the exposition
	// must still be complete and parseable.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := telem.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	w = getPath(t, telem, "/metricsz")
	if w.Code != http.StatusOK {
		t.Fatalf("mid-drain metricsz: %d", w.Code)
	}
	if _, err := telemetry.ParseExposition(w.Body.String()); err != nil {
		t.Fatalf("post-drain exposition failed self-check: %v", err)
	}
}

// TestStatszGolden pins the /statsz wire format byte-for-byte on a
// fresh, idle server: a field rename, reorder or type change is a
// breaking change for scrapers and must show up here.
func TestStatszGolden(t *testing.T) {
	s := newTestServer(t, Config{Pool: 2, QueueDepth: 8})
	w := getPath(t, s, "/statsz")
	if w.Code != http.StatusOK {
		t.Fatalf("statsz: %d", w.Code)
	}
	const golden = `{"admitted":0,"completed":0,"rejected_overload":0,"rejected_draining":0,"rejected_breaker":0,"rejected_bad_request":0,"deadline_exceeded":0,"canceled":0,"internal_errors":0,"env_replaced":0,"queue_depth":0,"pool":2,"draining":false,"ewma_service_ms":0}` + "\n"
	if got := w.Body.String(); got != golden {
		t.Fatalf("statsz wire format changed:\n got: %s\nwant: %s", got, golden)
	}
}

// TestStatszAgreesWithMetricsz: /statsz's kernel block and /metricsz's
// kernel families render one aggregate, so they agree after any request
// sequence — including a request whose deadline expires mid-run, whose
// partial metrics must reach neither endpoint.
func TestStatszAgreesWithMetricsz(t *testing.T) {
	var canceledPolls atomic.Int64
	s := newTestServer(t, Config{Pool: 1, Telemetry: true, FaultHook: func(req *Request, polls int) {
		if req.Reps != 25 {
			return
		}
		canceledPolls.Add(1)
		if polls == 1 {
			// Outlive the request's deadline after the run has started,
			// so the evaluation is abandoned mid-run.
			time.Sleep(300 * time.Millisecond)
		}
	}})
	w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":25,"deadline_ms":200}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline request: status %d, want 504: %s", w.Code, w.Body.String())
	}
	// One worker: the completed request runs after the canceled one ends.
	if w := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":1}`); w.Code != http.StatusOK {
		t.Fatalf("eval: %d", w.Code)
	}
	if canceledPolls.Load() == 0 {
		t.Fatal("the deadline request never started evaluating; the scenario was not exercised")
	}

	var snap Stats
	if err := json.Unmarshal(getPath(t, s, "/statsz").Body.Bytes(), &snap); err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	fams, err := telemetry.ParseExposition(getPath(t, s, "/metricsz").Body.String())
	if err != nil {
		t.Fatalf("metricsz: %v", err)
	}
	metric := map[string]uint64{}
	for _, f := range fams {
		if len(f.Samples) == 1 {
			metric[f.Name] = uint64(f.Samples[0].Value)
		}
	}
	k := snap.Kernel
	if k == nil {
		t.Fatal("statsz has no kernel block with telemetry on")
	}
	for _, c := range []struct {
		name         string
		statsz, want uint64
	}{
		{"jsk_kernel_requests", k.Runs, 1},
		{"jsk_kernel_installs", k.Installs, 0},
		{"jsk_kernel_enqueued", k.Enqueued, 0},
		{"jsk_kernel_dispatched", k.Dispatched, 0},
		{"jsk_kernel_shed", k.Shed, 0},
		{"jsk_kernel_cancelled", k.Cancelled, 0},
		{"jsk_kernel_expired", k.Expired, 0},
		{"jsk_kernel_panics", k.Panics, 0},
		{"jsk_kernel_quarantines", k.Quarantines, 0},
		{"jsk_kernel_policy_decisions", k.PolicyDecisions, 0},
		{"jsk_kernel_interpose_crossings", k.InterposeCrossings, 0},
	} {
		got, ok := metric[c.name]
		if !ok {
			t.Errorf("%s missing from /metricsz", c.name)
			continue
		}
		if got != c.statsz {
			t.Errorf("%s = %d on /metricsz but %d on /statsz", c.name, got, c.statsz)
		}
		if c.want != 0 && got != c.want {
			t.Errorf("%s = %d, want %d (only the completed request counts)", c.name, got, c.want)
		}
	}
	if k.Enqueued == 0 {
		t.Error("kernel aggregate is empty after a completed request")
	}
}

// TestVersionz: build identity is always served, even without telemetry.
func TestVersionz(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	w := getPath(t, s, "/versionz")
	if w.Code != http.StatusOK {
		t.Fatalf("versionz: %d", w.Code)
	}
	var v struct {
		Module    string `json:"module"`
		GoVersion string `json:"go_version"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("versionz decode: %v", err)
	}
	if v.Module == "" || v.GoVersion == "" {
		t.Fatalf("versionz incomplete: %s", w.Body.String())
	}
}

// TestTelemetryEndpointsRequirePlane: /v1/events and /ledgerz refuse
// with the typed permanent telemetry_off code when the plane is off.
func TestTelemetryEndpointsRequirePlane(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	for _, path := range []string{"/v1/events", "/ledgerz"} {
		w := getPath(t, s, path)
		if w.Code != http.StatusNotFound {
			t.Errorf("%s: status %d, want 404", path, w.Code)
		}
		e := decodeError(t, w)
		if e.Code != CodeTelemetryOff || e.Retryable() {
			t.Errorf("%s: code %s retryable=%v", path, e.Code, e.Retryable())
		}
	}
}

// TestRequestIDHeader: every /v1/eval response carries a unique
// service-assigned request ID — in a header, never the body.
func TestRequestIDHeader(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1, Telemetry: true})
	seen := map[string]bool{}
	for i := 0; i < 3; i++ {
		w := postEval(t, s, `{"attack":"loopscan","defense":"chrome","seed":1,"reps":1}`)
		id := w.Header().Get("Jsk-Request-Id")
		if id == "" {
			t.Fatal("missing Jsk-Request-Id header")
		}
		if seen[id] {
			t.Fatalf("request ID %s reused", id)
		}
		seen[id] = true
		if strings.Contains(w.Body.String(), id) {
			t.Fatalf("request ID leaked into response body")
		}
	}
	// Rejections carry one too.
	w := postEval(t, s, `{"attack":"nope","defense":"chrome"}`)
	if w.Header().Get("Jsk-Request-Id") == "" {
		t.Error("rejection missing Jsk-Request-Id header")
	}
}

// TestTraceQueryParam: ?trace=summary must produce byte-identical
// responses to the body flag.
func TestTraceQueryParam(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1})
	viaBody := postEval(t, s, `{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":1,"trace":true}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/eval?trace=summary",
		strings.NewReader(`{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":1}`))
	viaQuery := httptest.NewRecorder()
	s.Handler().ServeHTTP(viaQuery, req)
	if viaBody.Code != http.StatusOK || viaQuery.Code != http.StatusOK {
		t.Fatalf("status body=%d query=%d", viaBody.Code, viaQuery.Code)
	}
	if !bytes.Equal(viaBody.Body.Bytes(), viaQuery.Body.Bytes()) {
		t.Fatal("?trace=summary diverged from body trace flag")
	}
	var resp Response
	if err := json.Unmarshal(viaQuery.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Trace == nil || !resp.Trace.Validated {
		t.Fatal("trace summary missing or unvalidated")
	}
}

// TestResponseDeterminismAcrossPlaneModes pins obs neutrality at the
// service boundary: the same request returns identical bytes with the
// telemetry plane off and on, across environment-reuse generations, with
// trace and forensics attachments. The wall clock only exists on the
// serve/telemetry side of the boundary, so this is also the lint
// boundary test backing the detwalltime allowlist extension. The plane
// forces obs events on, so the trace:true bodies also pin that a trace
// summary leaves the obs-only records out when the request did not ask
// for forensics; the forensics:true bodies on undefended cells pin a
// timing cell's channel statistics and a CVE cell's mirror evidence.
func TestResponseDeterminismAcrossPlaneModes(t *testing.T) {
	bodies := []string{
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":11,"reps":2,"forensics":true,"tenant":"t-a"}`,
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":1,"trace":true}`,
		`{"attack":"CVE-2018-5092","defense":"jskernel-chrome","seed":42,"trace":true}`,
		`{"attack":"cache-attack","defense":"jskernel-chrome","seed":7,"reps":2}`,
		`{"attack":"clock-edge","defense":"chrome","seed":42,"reps":2,"forensics":true}`,
		`{"attack":"CVE-2018-5092","defense":"chrome","seed":42,"forensics":true}`,
	}
	const generations = 3
	configs := []Config{
		{Pool: 1},
		{Pool: 1, Telemetry: true},
	}
	want := make([][]byte, len(bodies))
	for i, cfg := range configs {
		s := newTestServer(t, cfg)
		for b, body := range bodies {
			for gen := 0; gen < generations; gen++ {
				w := postEval(t, s, body)
				if w.Code != http.StatusOK {
					t.Fatalf("body %d config %d generation %d: %d", b, i, gen, w.Code)
				}
				if want[b] == nil {
					want[b] = append([]byte(nil), w.Body.Bytes()...)
					continue
				}
				if !bytes.Equal(w.Body.Bytes(), want[b]) {
					t.Fatalf("body %d config %d generation %d diverged: plane mode leaked into response bytes", b, i, gen)
				}
			}
		}
		if cfg.Telemetry {
			snap := s.Snapshot()
			if k := snap.Kernel; k == nil || k.Runs != uint64(len(bodies)*generations) || k.Dispatched == 0 {
				t.Errorf("plane did not aggregate all %d requests: %+v", len(bodies)*generations, k)
			}
		}
	}
	// The flagged cells' forensics carry what the byte comparison pins:
	// the timing cell's channels and the CVE cell's evidence.
	for _, c := range []struct {
		b      int
		timing bool
	}{{4, true}, {5, false}} {
		b, timing := c.b, c.timing
		var resp Response
		if err := json.Unmarshal(want[b], &resp); err != nil {
			t.Fatal(err)
		}
		f := resp.Forensics
		if f == nil || !f.Flagged || (len(f.Channels) > 0) != timing || (len(f.Evidence) > 0) == timing {
			t.Errorf("body %d: want a flagged verdict with channels (timing) or evidence (CVE), got %+v", b, f)
		}
	}
}

// TestStreamingForensicsAgreement: the verdict streamed on /v1/events
// must agree with the per-response forensics of the same request, for
// every cell of a defended/undefended, timing/CVE matrix.
func TestStreamingForensicsAgreement(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1, Telemetry: true})
	cells := []string{
		`{"attack":"loopscan","defense":"chrome","seed":1,"reps":1,"forensics":true}`,
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":1,"reps":1,"forensics":true}`,
		`{"attack":"cache-attack","defense":"chrome","seed":2,"reps":1,"forensics":true}`,
		`{"attack":"CVE-2018-5092","defense":"chrome","seed":3,"forensics":true}`,
		`{"attack":"CVE-2018-5092","defense":"jskernel-firefox","seed":3,"forensics":true}`,
	}
	// Forensics summaries stay as raw JSON throughout: a byte-level
	// comparison is the stronger claim.
	type rawBody struct {
		Forensics json.RawMessage `json:"forensics"`
	}
	type rawEvent struct {
		RequestID string          `json:"request_id"`
		Summary   json.RawMessage `json:"summary"`
	}
	flaggedOf := func(raw json.RawMessage) bool {
		var v struct {
			Flagged bool `json:"flagged"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("decoding forensic verdict: %v", err)
		}
		return v.Flagged
	}
	bodies := make([]json.RawMessage, 0, len(cells))
	for _, c := range cells {
		w := postEval(t, s, c)
		if w.Code != http.StatusOK {
			t.Fatalf("eval %s: %d", c, w.Code)
		}
		var resp rawBody
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, resp.Forensics)
	}
	s.Plane().Barrier()
	evs, gap := s.Plane().Hub.Since(0, 0)
	if gap != nil {
		t.Fatalf("gap on fresh hub: %+v", gap)
	}
	var streamed []rawEvent
	for _, ev := range evs {
		if ev.Type != telemetry.EventForensics {
			continue
		}
		var fe rawEvent
		if err := json.Unmarshal(ev.Data, &fe); err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, fe)
	}
	if len(streamed) != len(cells) {
		t.Fatalf("streamed %d forensic verdicts, want %d", len(streamed), len(cells))
	}
	sawFlagged, sawClean := false, false
	for i, fe := range streamed {
		body := bodies[i]
		if body == nil || fe.Summary == nil {
			t.Fatalf("cell %d: missing forensics (body=%s stream=%s)", i, body, fe.Summary)
		}
		if flaggedOf(fe.Summary) != flaggedOf(body) {
			t.Errorf("cell %d: streamed flagged=%v, response flagged=%v — verdicts disagree", i, flaggedOf(fe.Summary), flaggedOf(body))
		}
		if !bytes.Equal(body, fe.Summary) {
			t.Errorf("cell %d: streamed summary diverged from response forensics\nbody:   %s\nstream: %s", i, body, fe.Summary)
		}
		if flaggedOf(body) {
			sawFlagged = true
		} else {
			sawClean = true
		}
	}
	if !sawFlagged || !sawClean {
		t.Errorf("matrix lost its contrast: flagged=%v clean=%v — agreement proven on one verdict only", sawFlagged, sawClean)
	}
}

// TestLedgerCampaignFixture is the acceptance fixture: an implicit-clock
// probe split across N requests against a *defended* surface. Every
// individual request's forensics must stay clean (the defense holds, so
// per-request judgement reports not-flagged), yet the cross-request
// ledger must flag the campaign — and a single request with the same
// fragments must never be flagged on its own.
func TestLedgerCampaignFixture(t *testing.T) {
	s := newTestServer(t, Config{Pool: 1, Telemetry: true})
	probe := func(i int) string {
		return fmt.Sprintf(`{"attack":"loopscan","defense":"jskernel-chrome","seed":%d,"reps":1,"forensics":true,"tenant":"patient-attacker"}`, 100+i)
	}

	// Request 1 alone: per-request clean, no campaign.
	w := postEval(t, s, probe(0))
	if w.Code != http.StatusOK {
		t.Fatalf("probe 0: %d", w.Code)
	}
	var resp Response
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Forensics == nil || resp.Forensics.Flagged {
		t.Fatalf("defended probe flagged per-request: %+v — fixture requires per-request clean", resp.Forensics)
	}
	s.Plane().Barrier()
	if got := s.Plane().Ledger.Campaigns(); got != 0 {
		t.Fatalf("campaign flagged after a single request (%d) — MinRequests guard failed", got)
	}

	// The rest of the campaign: each request individually clean.
	const n = 5
	for i := 1; i < n; i++ {
		w := postEval(t, s, probe(i))
		if w.Code != http.StatusOK {
			t.Fatalf("probe %d: %d", i, w.Code)
		}
		var r Response
		if err := json.Unmarshal(w.Body.Bytes(), &r); err != nil {
			t.Fatal(err)
		}
		if r.Forensics.Flagged {
			t.Fatalf("probe %d flagged per-request; the fixture must stay under per-request thresholds", i)
		}
	}
	s.Plane().Barrier()
	if got := s.Plane().Ledger.Campaigns(); got == 0 {
		rep := s.Plane().Ledger.Report()
		t.Fatalf("campaign not flagged after %d probe requests; ledger: %+v", n, rep)
	}
	rep := s.Plane().Ledger.Report()
	var campaign *telemetry.LedgerEntry
	for i := range rep.Entries {
		if rep.Entries[i].Flagged {
			campaign = &rep.Entries[i]
			break
		}
	}
	if campaign == nil {
		t.Fatal("no flagged ledger entry")
	}
	if campaign.Tenant != "patient-attacker" || campaign.Scope != "loopscan" {
		t.Fatalf("campaign attributed to %+v", campaign.LedgerKey)
	}
	if campaign.Requests < 3 {
		t.Fatalf("campaign with %d contributing requests", campaign.Requests)
	}

	// The campaign finding reached the event stream.
	evs, _ := s.Plane().Hub.Since(0, 0)
	sawCampaign := false
	for _, ev := range evs {
		if ev.Type == telemetry.EventCampaign {
			sawCampaign = true
			var cf telemetry.CampaignFinding
			if err := json.Unmarshal(ev.Data, &cf); err != nil {
				t.Fatal(err)
			}
			if cf.Tenant != "patient-attacker" {
				t.Errorf("campaign event tenant %q", cf.Tenant)
			}
			if len(cf.RequestIDs) < 3 {
				t.Errorf("campaign event carries %d request IDs", len(cf.RequestIDs))
			}
		}
	}
	if !sawCampaign {
		t.Error("campaign finding never published to /v1/events")
	}
}

// TestLedgerDeterministicAcrossServers: the same serialized request
// sequence against two fresh servers yields byte-identical /ledgerz
// reports.
func TestLedgerDeterministicAcrossServers(t *testing.T) {
	sequence := []string{
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":1,"reps":1,"tenant":"t1"}`,
		`{"attack":"cache-attack","defense":"chrome","seed":2,"reps":1,"tenant":"t2"}`,
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":3,"reps":1,"tenant":"t1"}`,
		`{"attack":"CVE-2018-5092","defense":"chrome","seed":4,"tenant":"t2"}`,
		`{"attack":"loopscan","defense":"jskernel-chrome","seed":5,"reps":1,"tenant":"t1"}`,
	}
	run := func() []byte {
		s := newTestServer(t, Config{Pool: 1, Telemetry: true})
		for _, body := range sequence {
			if w := postEval(t, s, body); w.Code != http.StatusOK {
				t.Fatalf("eval: %d", w.Code)
			}
		}
		w := getPath(t, s, "/ledgerz")
		if w.Code != http.StatusOK {
			t.Fatalf("ledgerz: %d", w.Code)
		}
		return append([]byte(nil), w.Body.Bytes()...)
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("ledger verdicts not deterministic for a fixed request sequence:\n%s\n---\n%s", a, b)
	}
}
