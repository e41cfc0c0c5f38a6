package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"jskernel/internal/hb"
	"jskernel/internal/obs"
	"jskernel/internal/telemetry"
)

// The live observability plane: /metricsz (OpenMetrics exposition),
// /versionz (build identity), /ledgerz (cross-request forensics
// ledger), /v1/events (streaming spans, forensic verdicts and campaign
// findings over SSE). All of it lives on the wall-clock side of the
// determinism boundary: nothing served here ever appears in a /v1/eval
// response body, and /v1/eval bodies are byte-identical with the plane
// on or off (pinned by TestResponseDeterminismAcrossPlaneModes, which is
// also the wall-time boundary test).

// ForensicsEvent is the /v1/events payload of one evaluation's
// streaming forensic verdict: the same per-request judgement the
// response body carries when forensics is requested, plus the
// happens-before findings, attributed to the request that produced it.
type ForensicsEvent struct {
	RequestID string            `json:"request_id"`
	Tenant    string            `json:"tenant,omitempty"`
	Attack    string            `json:"attack"`
	Defense   string            `json:"defense"`
	Seed      int64             `json:"seed"`
	Summary   *ForensicsSummary `json:"summary"`
	Races     []hb.Finding      `json:"races,omitempty"`
}

// captureFragments collapses one evaluation's raw detector tallies and
// happens-before findings into the ledger's class fragments. Raw counts
// — not thresholded signatures — are the point: a probe split across
// requests stays under every per-request threshold, and only the
// ledger's accumulation sees it.
func captureFragments(tallies []obs.FragmentCount, races []hb.Finding) []telemetry.ClassFragment {
	var frags []telemetry.ClassFragment
	for _, f := range tallies {
		frags = append(frags, telemetry.ClassFragment{Class: f.Detector, Score: int64(f.Count)})
	}
	raceWeight := telemetry.DefaultLedgerConfig().RaceWeight
	byClass := map[string]int64{}
	for _, f := range races {
		byClass["race-"+f.Class] += raceWeight
	}
	for _, f := range telemetry.SortedFragments(byClass) {
		frags = append(frags, f)
	}
	return frags
}

// handleMetricsz serves the OpenMetrics exposition: service counters
// always, kernel/span/plane aggregates when the plane is mounted. The
// ledger and aggregates are settled through a plane barrier first —
// the barrier waits on the flusher, never the other way around, so a
// scrape can not block an evaluation.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	fams := s.serviceFamilies()
	if s.plane != nil {
		s.plane.Barrier()
		agg := s.plane.KernelSnapshot()
		sp := s.plane.SpanSnapshot()
		fams = append(fams, agg.Families()...)
		fams = append(fams, sp.Families()...)
		fams = append(fams, s.plane.Families()...)
	}
	w.Header().Set("Content-Type", telemetry.ContentType)
	if err := telemetry.WriteExposition(w, fams); err != nil {
		fmt.Fprintf(s.cfg.log(), "jsk-serve: metricsz write: %v\n", err)
	}
}

// serviceFamilies renders the service-layer counters.
func (s *Server) serviceFamilies() []telemetry.Family {
	snap := s.serviceSnapshot()
	rejected := map[string]uint64{
		"overload":    snap.RejectedOverload,
		"draining":    snap.RejectedDraining,
		"breaker":     snap.RejectedBreaker,
		"bad_request": snap.RejectedBadRequest,
	}
	boolGauge := func(b bool) float64 {
		if b {
			return 1
		}
		return 0
	}
	breakerOpen, _ := s.breaker.rejects(time.Now())
	return []telemetry.Family{
		telemetry.Counter("jsk_serve_admitted", "Requests admitted past admission control.", snap.Admitted),
		telemetry.Counter("jsk_serve_completed", "Requests completed with a 200 response.", snap.Completed),
		telemetry.LabeledCounter("jsk_serve_rejected", "Requests rejected at admission, by reason.", "reason", rejected),
		telemetry.Counter("jsk_serve_deadline_exceeded", "Requests that ran out of completion budget.", snap.DeadlineExceeded),
		telemetry.Counter("jsk_serve_canceled", "Requests abandoned by their clients.", snap.Canceled),
		telemetry.Counter("jsk_serve_internal_errors", "Internal invariant failures.", snap.InternalErrors),
		telemetry.Counter("jsk_serve_env_replaced", "Pooled environments discarded after poisoning (environment generations).", snap.EnvReplaced),
		telemetry.Gauge("jsk_serve_queue_depth", "Requests currently queued for a worker.", float64(snap.QueueDepth)),
		telemetry.Gauge("jsk_serve_pool", "Evaluation worker pool size.", float64(snap.Pool)),
		telemetry.Gauge("jsk_serve_draining", "1 while a graceful shutdown is in progress.", boolGauge(snap.Draining)),
		telemetry.Gauge("jsk_serve_breaker_open", "1 while the poisoning circuit breaker rejects traffic.", boolGauge(breakerOpen)),
		telemetry.Gauge("jsk_serve_ewma_service_seconds", "Smoothed per-request service time.", float64(s.ewmaNs.Load())/1e9),
	}
}

// versionInfo is the /versionz wire format.
type versionInfo struct {
	Module    string `json:"module"`
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	Modified  bool   `json:"modified,omitempty"`
}

// handleVersionz serves build identity from the binary's embedded build
// info, so a scraped fleet can be tied to exact builds.
func (s *Server) handleVersionz(w http.ResponseWriter, _ *http.Request) {
	v := versionInfo{Module: "unknown", Version: "unknown", GoVersion: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		v.Module = bi.Main.Path
		v.Version = bi.Main.Version
		v.GoVersion = bi.GoVersion
		for _, st := range bi.Settings {
			switch st.Key {
			case "vcs.revision":
				v.Revision = st.Value
			case "vcs.modified":
				v.Modified = st.Value == "true"
			}
		}
	}
	s.writeJSON(w, http.StatusOK, v)
}

// handleLedgerz serves the cross-request forensics ledger report,
// settled through a plane barrier so a fixed request sequence always
// reports identical bytes.
func (s *Server) handleLedgerz(w http.ResponseWriter, _ *http.Request) {
	if s.plane == nil {
		s.writeError(w, errf(CodeTelemetryOff, "ledger requires the telemetry plane (start with telemetry enabled)"))
		return
	}
	s.plane.Barrier()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err := s.plane.Ledger.WriteJSON(w); err != nil {
		fmt.Fprintf(s.cfg.log(), "jsk-serve: ledgerz write: %v\n", err)
	}
}

// eventsKeepAlive bounds how long an idle SSE stream stays silent.
const eventsKeepAlive = 15 * time.Second

// handleEvents streams plane events over Server-Sent Events. Resume is
// exact: the client's Last-Event-ID header (or ?after= query) positions
// the cursor, events the ring already evicted surface as an explicit
// gap event, and IDs are strictly increasing so client-side dedup after
// a reconnect is a comparison. The stream ends when the client goes
// away or the plane closes during drain.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if s.plane == nil {
		s.writeError(w, errf(CodeTelemetryOff, "event stream requires the telemetry plane (start with telemetry enabled)"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, errf(CodeInternal, "response writer cannot stream"))
		return
	}
	var cursor uint64
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			cursor = n
		}
	} else if v := r.URL.Query().Get("after"); v != "" {
		if n, err := strconv.ParseUint(v, 10, 64); err == nil {
			cursor = n
		}
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for {
		evs, gap := s.plane.Hub.Since(cursor, 256)
		if gap != nil {
			data, _ := json.Marshal(gap)
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", gap.To, telemetry.EventGap, data)
			cursor = gap.To
		}
		for _, ev := range evs {
			fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
			cursor = ev.ID
		}
		if len(evs) == 0 && gap == nil {
			fmt.Fprint(w, ": keepalive\n\n")
		}
		fl.Flush()
		if !s.plane.Hub.Wait(r.Context(), eventsKeepAlive) {
			return
		}
	}
}
