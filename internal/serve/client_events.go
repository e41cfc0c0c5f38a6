package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// StreamEvent is one event received from /v1/events. IDs are strictly
// increasing server-side, which makes resume and dedup exact: after a
// reconnect the client resumes from the last ID it saw and drops
// anything at or below it.
type StreamEvent struct {
	ID   uint64
	Type string
	Data json.RawMessage
}

// Events consumes the server's /v1/events stream, invoking fn for every
// event with ID > after, in order and exactly once. Mid-stream
// disconnects are classified through the same typed-retry contract as
// Eval: a dropped connection is a transient transportError, so the
// client reconnects (up to MaxAttempts consecutive failures) with a
// Last-Event-ID resume header; a typed permanent error from the server
// — e.g. telemetry_off — stops immediately. Events delivered by the
// stream reset the failure budget.
//
// Events returns nil when the server ends the stream cleanly (drain),
// ctx.Err() when the caller's context ends, fn's error if fn fails, and
// otherwise the last transient error once the failure budget is spent.
func (c *Client) Events(ctx context.Context, after uint64, fn func(StreamEvent) error) error {
	cursor := after
	failures := 0
	var last error
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		progressed, err := c.eventsOnce(ctx, cursor, &cursor, fn)
		if err == nil {
			// Clean end of stream: the server drained.
			return nil
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		re, ok := err.(RetryableError)
		if !ok || !re.Retryable() {
			return err
		}
		if progressed {
			failures = 0
		}
		failures++
		last = err
		if failures >= c.maxAttempts() {
			return last
		}
		c.backoff(failures, err)
	}
}

// eventsOnce runs one streaming attempt, advancing *cursor for every
// delivered event. It reports whether any event was delivered this
// attempt, and a nil error only on clean stream end.
func (c *Client) eventsOnce(ctx context.Context, from uint64, cursor *uint64, fn func(StreamEvent) error) (bool, error) {
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodGet, c.BaseURL+"/v1/events", nil)
	if err != nil {
		return false, fmt.Errorf("serve: building request: %w", err)
	}
	httpReq.Header.Set("Accept", "text/event-stream")
	if from > 0 {
		httpReq.Header.Set("Last-Event-ID", strconv.FormatUint(from, 10))
	}
	httpResp, err := c.httpClient().Do(httpReq)
	if err != nil {
		return false, &transportError{err: err}
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(httpResp.Body, 1<<16))
		var env errEnvelope
		if jerr := json.Unmarshal(data, &env); jerr != nil || env.Error == nil {
			return false, &transportError{err: fmt.Errorf("status %d with undecodable error body", httpResp.StatusCode)}
		}
		return false, env.Error
	}
	return readEventStream(httpResp.Body, cursor, fn)
}

// readEventStream parses one text/event-stream body, handing fn every
// event whose ID is above *cursor and advancing *cursor to it. Events at
// or below the cursor are dropped: a resumed stream may replay from an
// older ring position, and IDs are authoritative. It reports whether any
// event was delivered, and returns fn's error, a transportError when the
// body fails mid-stream (a line over 1 MiB included), or nil at a clean
// end of stream.
func readEventStream(r io.Reader, cursor *uint64, fn func(StreamEvent) error) (progressed bool, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var ev StreamEvent
	flush := func() error {
		defer func() { ev = StreamEvent{} }()
		if ev.Type == "" && ev.Data == nil {
			return nil
		}
		if ev.ID <= *cursor {
			return nil
		}
		*cursor = ev.ID
		progressed = true
		return fn(ev)
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return progressed, err
			}
		case strings.HasPrefix(line, ":"):
			// Keepalive comment.
		case strings.HasPrefix(line, "id:"):
			if n, perr := strconv.ParseUint(strings.TrimSpace(line[3:]), 10, 64); perr == nil {
				ev.ID = n
			}
		case strings.HasPrefix(line, "event:"):
			ev.Type = strings.TrimSpace(line[6:])
		case strings.HasPrefix(line, "data:"):
			ev.Data = json.RawMessage(strings.TrimSpace(line[5:]))
		}
	}
	if serr := sc.Err(); serr != nil {
		// Mid-stream disconnect: transient by the same argument as any
		// transport failure — resume is exact, so retrying is safe.
		return progressed, &transportError{err: serr}
	}
	if err := flush(); err != nil {
		return progressed, err
	}
	return progressed, nil
}
