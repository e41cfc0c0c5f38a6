package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"jskernel/internal/telemetry"
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

// FuzzEventStream feeds arbitrary bytes to readEventStream, the parser
// of the /v1/events stream the client resumes across reconnects, with an
// arbitrary starting cursor. The contract: no panic; the events it
// delivers have strictly increasing IDs, all above the starting cursor,
// and the cursor ends at the last one; and a stream written in the
// server's wire format (handleEvents) parses back to exactly the events
// written, keepalive comments between them and all.
//
// The seed corpus under testdata/fuzz/FuzzEventStream holds real
// /v1/events captures: one that starts behind the replay ring with a
// gap event, and one resumed from an older ring position than the
// client's cursor, ending in a keepalive comment; that capture again
// with CRLF line ends; and, added below, a data line over the parser's
// 1 MiB line limit. Run the fuzzer with:
//
//	go test ./internal/serve -run '^$' -fuzz FuzzEventStream -fuzztime 30s
func FuzzEventStream(f *testing.F) {
	f.Add("id: 1\nevent: span\ndata: \""+strings.Repeat("x", 1<<20)+"\"\n\nid: 2\nevent: span\ndata: {}\n\n", uint64(0))
	types := []string{telemetry.EventGap, "forensics", "span"}
	f.Fuzz(func(t *testing.T, stream string, after uint64) {
		cursor, last := after, after
		_, _ = readEventStream(strings.NewReader(stream), &cursor, func(ev StreamEvent) error {
			if ev.ID <= last {
				t.Fatalf("delivered event %d after %d (starting cursor %d)", ev.ID, last, after)
			}
			last = ev.ID
			return nil
		})
		if cursor != last {
			t.Fatalf("cursor ends at %d, last delivered event is %d", cursor, last)
		}

		// Derive events from the input, write them as the server does,
		// and parse them back from a cursor just below the first.
		base := after >> 8
		id := base
		var wire strings.Builder
		var want []StreamEvent
		for i, chunk := range strings.SplitN(stream, "\n", 64) {
			if len(chunk) > 4096 {
				chunk = chunk[:4096]
			}
			data, err := json.Marshal(chunk)
			if err != nil {
				t.Fatal(err)
			}
			id += 1 + uint64(len(chunk))
			ev := StreamEvent{ID: id, Type: types[len(chunk)%len(types)], Data: data}
			want = append(want, ev)
			fmt.Fprintf(&wire, "id: %d\nevent: %s\ndata: %s\n\n", ev.ID, ev.Type, ev.Data)
			if i%3 == 2 {
				fmt.Fprint(&wire, ": keepalive\n\n")
			}
		}
		var got []StreamEvent
		cursor = base
		if _, err := readEventStream(strings.NewReader(wire.String()), &cursor, func(ev StreamEvent) error {
			got = append(got, ev)
			return nil
		}); err != nil {
			t.Fatalf("server-format stream: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("server-format stream of %d events parsed to %d", len(want), len(got))
		}
		for i := range want {
			if got[i].ID != want[i].ID || got[i].Type != want[i].Type || !bytes.Equal(got[i].Data, want[i].Data) {
				t.Fatalf("event %d parsed as %+v, written as %+v", i, got[i], want[i])
			}
		}
	})
}
