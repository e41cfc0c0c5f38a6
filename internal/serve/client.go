package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Client is the retrying evaluation client. Its retry loop is driven
// entirely by the typed-error contract: a failure retries iff its
// RetryableError classification says retrying can help, and the wait
// honors the server's Retry-After hint when one is present. Backoff is
// deterministic exponential doubling with no jitter — this repo's
// clients are benchmark harnesses and tests, where reproducible
// schedules are worth more than thundering-herd dispersion.
type Client struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8571".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// MaxAttempts bounds tries per evaluation, counting the first, and
	// consecutive failed connections per Events. Default: 4.
	MaxAttempts int

	// sleep replaces time.Sleep between attempts: a test seam, set only
	// by this package's tests to virtualize the schedule.
	sleep func(time.Duration)
}

// The retry schedule: the first wait, doubling each attempt up to the
// cap.
const (
	baseBackoff = 100 * time.Millisecond
	maxBackoff  = 5 * time.Second
)

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// transportError wraps a failure below the HTTP layer (dial refused,
// connection reset mid-response). These are transient by contract: the
// request may never have reached admission, and admitted-but-abandoned
// work is discarded server-side, so a retry is always safe and often
// useful.
type transportError struct{ err error }

func (e *transportError) Error() string   { return fmt.Sprintf("serve: transport: %v", e.err) }
func (e *transportError) Unwrap() error   { return e.err }
func (e *transportError) Retryable() bool { return true }

// backoffWait computes the wait before retry attempt (1-based), taking
// the larger of the exponential schedule and the server's hint.
func backoffWait(attempt int, hintMs int64) time.Duration {
	wait := baseBackoff
	for i := 1; i < attempt; i++ {
		wait *= 2
		if wait >= maxBackoff {
			wait = maxBackoff
			break
		}
	}
	if hint := time.Duration(hintMs) * time.Millisecond; hint > wait {
		wait = hint
	}
	return min(wait, maxBackoff)
}

// backoff sleeps before retry attempt (1-based) after err.
func (c *Client) backoff(attempt int, err error) {
	var hint int64
	if e, ok := err.(*Error); ok {
		hint = e.RetryAfterMs
	}
	sleep := c.sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(backoffWait(attempt, hint))
}

// Eval is EvalBytes with the response decoded.
func (c *Client) Eval(ctx context.Context, req Request) (*Response, error) {
	data, err := c.EvalBytes(ctx, req)
	if err != nil {
		return nil, err
	}
	var resp Response
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, &transportError{err: fmt.Errorf("decoding response: %w", err)}
	}
	return &resp, nil
}

// EvalBytes runs one evaluation request, retrying transient failures up
// to MaxAttempts, and returns the exact response body bytes. The
// determinism suites compare these byte-for-byte across pool widths and
// repeated rounds. The returned error, when non-nil, is always a
// RetryableError (*Error from the server, *transportError below it) —
// callers branch on the classification, never on text.
func (c *Client) EvalBytes(ctx context.Context, req Request) ([]byte, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("serve: encoding request: %w", err)
	}
	for attempt := 1; ; attempt++ {
		data, err := c.once(ctx, body)
		if err == nil {
			return data, nil
		}
		re, ok := err.(RetryableError)
		if attempt >= c.maxAttempts() || !ok || !re.Retryable() {
			return nil, err
		}
		c.backoff(attempt, err)
		if ctx.Err() != nil {
			return nil, err
		}
	}
}

// once performs a single attempt and returns the body of a 200.
func (c *Client) once(ctx context.Context, body []byte) ([]byte, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.BaseURL+"/v1/eval", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("serve: building request: %w", err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return nil, &transportError{err: err}
	}
	defer httpResp.Body.Close()
	data, err := io.ReadAll(httpResp.Body)
	if err != nil {
		return nil, &transportError{err: err}
	}
	if httpResp.StatusCode != http.StatusOK {
		var env errEnvelope
		if jerr := json.Unmarshal(data, &env); jerr != nil || env.Error == nil {
			return nil, &transportError{err: fmt.Errorf("status %d with undecodable error body", httpResp.StatusCode)}
		}
		return nil, env.Error
	}
	return data, nil
}
