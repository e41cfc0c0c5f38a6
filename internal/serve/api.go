// Package serve is the kernel as a service: a long-running HTTP daemon
// that accepts workload/policy-evaluation requests — one Table I cell
// each: an (attack, defense, seed) coordinate — runs them on a bounded
// pool of workers that build each request's kernel environments fresh,
// and returns verdicts, validated traces and forensic findings.
//
// The robustness contract is load-shedding without accuracy-shedding:
// under overload the server rejects explicitly (429 + Retry-After,
// never a silent drop), but a request that is admitted always gets a
// correct, deterministic answer — the same body and seed produce
// byte-identical response bodies at any pool width, in any order, and
// after any neighbor's poisoning. Degraded operation changes *which*
// requests run, never *what* an admitted request computes.
//
// Every failure surfaces as a typed Error whose transient-vs-permanent
// classification is table-driven (see codeInfo), so client retry
// decisions never string-match error text. The same contract extends
// webnet's typed errors (TransientError.Retryable, NotFoundError.
// Retryable) under the RetryableError interface.
package serve

import (
	"fmt"
	"net/http"

	"jskernel/internal/expr"
	"jskernel/internal/obs"
	"jskernel/internal/trace"
)

// Request is one evaluation request: a single Table I cell. Attack
// selects a timing-attack row (by ID, e.g. "loopscan") or a CVE row
// (by identifier, e.g. "CVE-2018-5092"); Defense selects the column.
// The response is a pure function of this struct — it carries no
// server-side nondeterminism.
type Request struct {
	Attack  string `json:"attack"`
	Defense string `json:"defense"`
	Seed    int64  `json:"seed"`
	// Reps is the repetition budget for timing rows (ignored for CVE
	// rows); zero takes the server default, values above the server cap
	// are rejected as bad_request rather than silently clamped.
	Reps int `json:"reps,omitempty"`
	// Trace includes a validated kernel lifecycle trace summary.
	Trace bool `json:"trace,omitempty"`
	// Forensics streams the run through the internal/obs detectors and
	// includes the forensic re-judgement alongside the harness verdict.
	Forensics bool `json:"forensics,omitempty"`
	// DeadlineMs is this request's completion budget in milliseconds,
	// measured from admission; zero takes the server default. The
	// deadline propagates into the simulator as cooperative
	// cancellation: a request that cannot finish in budget returns a
	// typed deadline error, never a partial verdict.
	DeadlineMs int64 `json:"deadline_ms,omitempty"`
	// Tenant attributes this request in the cross-request forensics
	// ledger (empty accumulates under the anonymous tenant). It never
	// affects the evaluation or the response bytes — the same cell with
	// a different tenant returns identical bodies. A name longer than
	// 128 bytes is a bad_request.
	Tenant string `json:"tenant,omitempty"`
}

// Channel is the per-channel statistical outcome of a timing cell,
// mirroring attack.ChannelResult with a stable wire format.
type Channel struct {
	Channel string  `json:"channel"`
	MeanA   float64 `json:"mean_a"`
	MeanB   float64 `json:"mean_b"`
	CohensD float64 `json:"cohens_d"`
	Leaks   bool    `json:"leaks"`
}

// MarshalJSON renders non-finite effect sizes as strings (a
// zero-variance channel with distinct means has an infinite Cohen's d,
// which JSON cannot carry as a number).
func (c Channel) MarshalJSON() ([]byte, error) {
	v := obs.ChannelVerdict{Channel: c.Channel, MeanA: c.MeanA, MeanB: c.MeanB, CohensD: c.CohensD, Leaks: c.Leaks}
	return v.MarshalJSON()
}

// UnmarshalJSON is MarshalJSON's inverse, so a client can decode the
// responses this server writes.
func (c *Channel) UnmarshalJSON(b []byte) error {
	var v obs.ChannelVerdict
	if err := v.UnmarshalJSON(b); err != nil {
		return err
	}
	*c = Channel(v)
	return nil
}

// TraceSummary reports the request's kernel lifecycle trace after
// replay through the trace validator.
type TraceSummary struct {
	// Validated is true when the trace satisfied every kernel lifecycle
	// invariant (it always should; false is a server bug surfaced loudly).
	Validated bool         `json:"validated"`
	Report    trace.Report `json:"report"`
}

// ForensicsSummary is the obs layer's independent re-judgement of the
// cell, reconstructed from the event stream alone: expr.RunCell's
// forensic verdict.
type ForensicsSummary = expr.Verdict

// Response is one completed evaluation. All fields derive from the
// deterministic simulation: no wall-clock times, pool identities or
// request counts appear here, which is what keeps equal requests
// byte-equal across any server configuration.
type Response struct {
	Attack  string `json:"attack"`
	Defense string `json:"defense"`
	Kind    string `json:"kind"` // "timing" or "cve"
	Seed    int64  `json:"seed"`
	Reps    int    `json:"reps,omitempty"` // resolved budget (timing rows)

	Defended  bool      `json:"defended"`
	Exploited bool      `json:"exploited,omitempty"` // CVE rows
	Channels  []Channel `json:"channels,omitempty"`  // timing rows

	// Table is the cell rendered in Table I's format.
	Table string `json:"table"`

	Trace     *TraceSummary     `json:"trace,omitempty"`
	Forensics *ForensicsSummary `json:"forensics,omitempty"`
}

// Code names one failure class. The classification below is the single
// source of truth for HTTP status and retryability — clients and tests
// consume the table, never error strings.
type Code string

// Failure classes.
const (
	// CodeBadRequest: malformed JSON, invalid field values, oversized
	// bodies. Permanent — the same bytes will fail the same way.
	CodeBadRequest Code = "bad_request"
	// CodeUnknownAttack / CodeUnknownDefense: the named row or column
	// does not exist. Permanent.
	CodeUnknownAttack  Code = "unknown_attack"
	CodeUnknownDefense Code = "unknown_defense"
	// CodeOverloaded: admission refused — the queue is full or the
	// queue wait would already exceed the request deadline. Transient:
	// retry after Retry-After.
	CodeOverloaded Code = "overloaded"
	// CodeDraining: the server is shutting down gracefully. Transient
	// (another replica, or this one after restart, will serve it).
	CodeDraining Code = "draining"
	// CodeBreakerOpen: repeated environment poisonings opened the
	// circuit breaker; evaluations are refused until the cooldown
	// probe succeeds. Transient.
	CodeBreakerOpen Code = "breaker_open"
	// CodeEnvPoisoned: the evaluation panicked; its environments were
	// dropped with it. Transient — a retry builds fresh ones.
	CodeEnvPoisoned Code = "env_poisoned"
	// CodeDeadline: the request's own completion budget expired
	// (queued too long, or the simulation was cooperatively canceled
	// mid-run). Permanent for this budget: retrying with the same
	// deadline buys nothing; the client must decide to spend more.
	CodeDeadline Code = "deadline_exceeded"
	// CodeCanceled: the client went away mid-request. Permanent — there
	// is no one left to retry for.
	CodeCanceled Code = "canceled"
	// CodeInternal: an invariant broke (e.g. a trace failed
	// validation). Permanent: retries would loudly fail again, which is
	// the point — this class must page, not mask.
	CodeInternal Code = "internal"
	// CodeTelemetryOff: the request needs the telemetry plane
	// (/v1/events, /ledgerz) but the server runs with telemetry
	// disabled. Permanent — this replica will keep refusing.
	CodeTelemetryOff Code = "telemetry_off"
)

// codeInfo is the typed-error classification table: HTTP status and
// transient-vs-permanent, per code. Documented in DESIGN §12 and pinned
// by TestErrorClassificationTable.
var codeInfo = map[Code]struct {
	Status    int
	Retryable bool
}{
	CodeBadRequest:     {http.StatusBadRequest, false},
	CodeUnknownAttack:  {http.StatusNotFound, false},
	CodeUnknownDefense: {http.StatusNotFound, false},
	CodeOverloaded:     {http.StatusTooManyRequests, true},
	CodeDraining:       {http.StatusServiceUnavailable, true},
	CodeBreakerOpen:    {http.StatusServiceUnavailable, true},
	CodeEnvPoisoned:    {http.StatusInternalServerError, true},
	CodeDeadline:       {http.StatusGatewayTimeout, false},
	CodeCanceled:       {http.StatusRequestTimeout, false},
	CodeInternal:       {http.StatusInternalServerError, false},
	CodeTelemetryOff:   {http.StatusNotFound, false},
}

// Error is the service's typed failure. It is both the wire format
// (JSON body of every non-200 response) and the Go error value the
// client surfaces.
type Error struct {
	Code    Code   `json:"code"`
	Message string `json:"message"`
	// RetryAfterMs carries the server's backoff hint for transient
	// rejections (mirrors the Retry-After header).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

func (e *Error) Error() string {
	return fmt.Sprintf("serve: %s: %s", e.Code, e.Message)
}

// Retryable reports the table-driven transient-vs-permanent
// classification of this failure.
func (e *Error) Retryable() bool { return codeInfo[e.Code].Retryable }

// HTTPStatus returns the status the table assigns this code (500 for
// unknown codes — loud, permanent).
func (e *Error) HTTPStatus() int {
	if info, ok := codeInfo[e.Code]; ok {
		return info.Status
	}
	return http.StatusInternalServerError
}

// RetryableError is the repo-wide contract for typed retry decisions:
// an error that knows whether retrying can help. serve.Error,
// webnet.TransientError and webnet.NotFoundError implement it; retry
// loops consult the method (via Retryable), never the error text.
type RetryableError interface {
	error
	Retryable() bool
}

// errf builds a typed error.
func errf(code Code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// errEnvelope is the JSON wrapper of every non-200 response.
type errEnvelope struct {
	Error *Error `json:"error"`
}
