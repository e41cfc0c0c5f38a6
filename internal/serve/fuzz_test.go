package serve

import (
	"encoding/json"
	"testing"
)

// FuzzEvalRequest feeds arbitrary /v1/eval bodies through the decoder
// and the resolver handleEval uses. The contract: no panic; every
// rejection is a typed *Error with a 4xx status that is not retryable
// (the same bytes fail the same way); every accepted body is exactly one
// JSON value, has a positive completion budget and a tenant within
// maxTenantBytes, and a timing row's reps fall in [1, maxReps].
//
// The seed corpus under testdata/fuzz/FuzzEvalRequest covers valid
// timing and CVE bodies, an unknown field, trailing bytes, a negative
// and an overflowing deadline_ms, reps over the cap and a tenant over
// the cap. Run the fuzzer with:
//
//	go test ./internal/serve -run '^$' -fuzz FuzzEvalRequest -fuzztime 30s
func FuzzEvalRequest(f *testing.F) {
	var cfg Config
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		var cl *cell
		if err == nil {
			cl, err = cfg.resolve(req)
		}
		if err != nil {
			if status := err.HTTPStatus(); status < 400 || status > 499 {
				t.Fatalf("rejection %s has status %d, want 4xx", err.Code, status)
			}
			if err.Retryable() {
				t.Fatalf("rejection %s invites a retry of the same bytes", err.Code)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("accepted a body that is not exactly one JSON value: %q", body)
		}
		if len(req.Tenant) > maxTenantBytes {
			t.Fatalf("accepted a %d-byte tenant, above %d", len(req.Tenant), maxTenantBytes)
		}
		if cl.budget <= 0 {
			t.Fatalf("accepted request has budget %v (deadline_ms %d)", cl.budget, req.DeadlineMs)
		}
		if cl.kind == "timing" && (cl.Reps < 1 || cl.Reps > cfg.maxReps()) {
			t.Fatalf("accepted timing request has reps %d outside [1, %d]", cl.Reps, cfg.maxReps())
		}
	})
}
