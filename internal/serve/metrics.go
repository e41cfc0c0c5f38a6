package serve

import (
	"net/http"
	"sync/atomic"
	"time"
)

// stats is the server's operational counter set: lock-free atomics
// updated on hot paths. None of this feeds back into evaluation —
// /statsz observes the server, it never steers it, which keeps
// responses independent of history.
type stats struct {
	admitted           atomic.Uint64
	completed          atomic.Uint64
	rejectedOverload   atomic.Uint64
	rejectedDraining   atomic.Uint64
	rejectedBreaker    atomic.Uint64
	rejectedBadRequest atomic.Uint64
	deadlineExceeded   atomic.Uint64
	canceled           atomic.Uint64
	internalErrors     atomic.Uint64
	envReplaced        atomic.Uint64
}

// KernelTotals is the /statsz view of the plane's kernel aggregate: the
// kernel metrics registries of every completed evaluation
// (Config.Telemetry), the same fold /metricsz renders. Virtual-time
// totals accumulate across requests; they share no clock with the
// service layer's wall time.
type KernelTotals struct {
	Runs               uint64 `json:"runs"`
	Installs           uint64 `json:"installs"`
	Enqueued           uint64 `json:"enqueued"`
	Dispatched         uint64 `json:"dispatched"`
	Shed               uint64 `json:"shed"`
	Cancelled          uint64 `json:"cancelled"`
	Expired            uint64 `json:"expired"`
	Panics             uint64 `json:"panics"`
	Quarantines        uint64 `json:"quarantines"`
	PolicyDecisions    uint64 `json:"policy_decisions"`
	InterposeCrossings uint64 `json:"interpose_crossings"`
	InterposeVirtual   uint64 `json:"interpose_virtual"`
}

// Stats is the /statsz wire format (and the programmatic snapshot the
// tests read).
type Stats struct {
	Admitted           uint64 `json:"admitted"`
	Completed          uint64 `json:"completed"`
	RejectedOverload   uint64 `json:"rejected_overload"`
	RejectedDraining   uint64 `json:"rejected_draining"`
	RejectedBreaker    uint64 `json:"rejected_breaker"`
	RejectedBadRequest uint64 `json:"rejected_bad_request"`
	DeadlineExceeded   uint64 `json:"deadline_exceeded"`
	Canceled           uint64 `json:"canceled"`
	InternalErrors     uint64 `json:"internal_errors"`
	EnvReplaced        uint64 `json:"env_replaced"`

	QueueDepth int  `json:"queue_depth"`
	Pool       int  `json:"pool"`
	Draining   bool `json:"draining"`
	// EwmaServiceMs is the admission controller's smoothed service-time
	// estimate (0 until the first completion).
	EwmaServiceMs int64 `json:"ewma_service_ms"`

	// Kernel is present only in telemetry mode.
	Kernel *KernelTotals `json:"kernel,omitempty"`
}

// Snapshot captures the server's counters at this instant. With the
// telemetry plane on, the kernel block is the plane's aggregate,
// settled through a plane barrier like /metricsz and /ledgerz.
func (s *Server) Snapshot() Stats {
	snap := s.serviceSnapshot()
	if s.plane != nil {
		s.plane.Barrier()
		agg := s.plane.KernelSnapshot()
		snap.Kernel = &KernelTotals{
			Runs:               agg.Requests,
			Installs:           agg.Installs,
			Enqueued:           agg.Enqueued,
			Dispatched:         agg.Dispatched,
			Shed:               agg.Shed,
			Cancelled:          agg.Cancelled,
			Expired:            agg.Expired,
			Panics:             agg.Panics,
			Quarantines:        agg.Quarantines,
			PolicyDecisions:    agg.PolicyDecisions,
			InterposeCrossings: agg.InterposeCrossings,
			InterposeVirtual:   uint64(agg.InterposeVirtual),
		}
	}
	return snap
}

// serviceSnapshot captures the service-layer counters alone.
func (s *Server) serviceSnapshot() Stats {
	return Stats{
		Admitted:           s.stats.admitted.Load(),
		Completed:          s.stats.completed.Load(),
		RejectedOverload:   s.stats.rejectedOverload.Load(),
		RejectedDraining:   s.stats.rejectedDraining.Load(),
		RejectedBreaker:    s.stats.rejectedBreaker.Load(),
		RejectedBadRequest: s.stats.rejectedBadRequest.Load(),
		DeadlineExceeded:   s.stats.deadlineExceeded.Load(),
		Canceled:           s.stats.canceled.Load(),
		InternalErrors:     s.stats.internalErrors.Load(),
		EnvReplaced:        s.stats.envReplaced.Load(),
		QueueDepth:         len(s.queue),
		Pool:               s.cfg.pool(),
		Draining:           s.Draining(),
		EwmaServiceMs:      time.Duration(s.ewmaNs.Load()).Milliseconds(),
	}
}

// handleHealthz is liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// readyState is the /readyz wire format.
type readyState struct {
	Status       string `json:"status"`
	QueueDepth   int    `json:"queue_depth"`
	Pool         int    `json:"pool"`
	RetryAfterMs int64  `json:"retry_after_ms,omitempty"`
}

// handleReadyz is readiness: 503 while draining or while the circuit
// breaker is open, 200 otherwise. Load balancers steer on this; the
// admission path enforces the same conditions with typed errors.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	st := readyState{QueueDepth: len(s.queue), Pool: s.cfg.pool()}
	if s.Draining() {
		st.Status = "draining"
		s.writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	if open, wait := s.breaker.rejects(time.Now()); open {
		st.Status = "breaker_open"
		st.RetryAfterMs = wait.Milliseconds() + 1
		s.writeJSON(w, http.StatusServiceUnavailable, st)
		return
	}
	st.Status = "ready"
	s.writeJSON(w, http.StatusOK, st)
}

// handleStatsz serves the counter snapshot.
func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Snapshot())
}
