package trace

import (
	"bytes"
	"errors"
	"testing"

	"jskernel/internal/sim"
)

// validBase is a minimal well-formed lifecycle: policy → enqueue →
// confirm → dispatch of one event.
func validBase() []Record {
	return []Record{
		{Seq: 1, VT: 0, Thread: 1, Scope: 1, Op: OpPolicy, API: "fetch", Event: 1, Action: "schedule"},
		{Seq: 2, VT: 0, Thread: 1, Scope: 1, Op: OpEnqueue, API: "fetch", Event: 1},
		{Seq: 3, VT: 0, Thread: 1, Scope: 1, Op: OpConfirm, API: "fetch", Event: 1},
		{Seq: 4, VT: 4 * sim.Millisecond, Thread: 1, Scope: 1, Op: OpDispatch, API: "fetch", Event: 1},
	}
}

// TestValidatorTypedErrors builds adversarially malformed streams and
// asserts each produces its own *distinct* typed validation error — not
// a generic failure — so tooling can branch on errors.Is.
func TestValidatorTypedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func([]Record) []Record
		want   error
	}{
		{"duplicated terminal state", func(r []Record) []Record {
			// A second dispatch for an event already retired by the first.
			dup := r[3]
			dup.VT = 5 * sim.Millisecond
			return append(r, dup)
		}, ErrDuplicateTerminal},
		{"cancel after dispatch is also a duplicate terminal", func(r []Record) []Record {
			late := r[3]
			late.Op = OpCancel
			late.VT = 5 * sim.Millisecond
			return append(r, late)
		}, ErrDuplicateTerminal},
		{"dispatch before confirm", func(r []Record) []Record {
			return []Record{r[0], r[1], r[3]}
		}, ErrDispatchBeforeConfirm},
		{"dispatch before policy", func(r []Record) []Record {
			return []Record{r[1], r[2], r[3]}
		}, ErrDispatchBeforePolicy},
		{"dispatch before enqueue", func(r []Record) []Record {
			return []Record{r[0], r[3]}
		}, ErrDispatchBeforeEnqueue},
		{"vt regression within a thread", func(r []Record) []Record {
			r[3].VT = -1
			return r
		}, ErrTimeRegression},
		{"lc regression within a scope", func(r []Record) []Record {
			r[1].LC = 2 * sim.Millisecond
			r[2].LC = 1 * sim.Millisecond
			return r
		}, ErrClockRegression},
		{"duplicate enqueue", func(r []Record) []Record {
			return []Record{r[0], r[1], r[2], r[1]}
		}, ErrDuplicateEnqueue},
		{"confirm before enqueue", func(r []Record) []Record {
			return []Record{r[0], r[2]}
		}, ErrConfirmBeforeEnqueue},
		{"non-terminal record after terminal", func(r []Record) []Record {
			late := r[2]
			late.VT = 5 * sim.Millisecond
			return append(r, late)
		}, ErrAfterTerminal},
		{"terminal for an event never enqueued", func(r []Record) []Record {
			return []Record{{VT: 0, Thread: 1, Scope: 1, Op: OpCancel, API: "fetch", Event: 9}}
		}, ErrTerminalBeforeEnqueue},
		{"panic outside a dispatch", func(r []Record) []Record {
			return []Record{r[0], r[1], {VT: 0, Thread: 1, Scope: 1, Op: OpPanic, API: "fetch", Event: 1}}
		}, ErrPanicOutsideDispatch},
		{"open events in strict mode", func(r []Record) []Record {
			return []Record{r[0], r[1], r[2]}
		}, ErrOpenEvents},
	}

	// Every case must map to a different sentinel except where the table
	// deliberately shares one (both duplicate-terminal shapes).
	for _, tc := range cases {
		recs := tc.mutate(validBase())
		for i := range recs {
			recs[i].Seq = uint64(i + 1)
		}
		_, err := Validate(recs)
		if err == nil {
			t.Errorf("%s: validation passed, want %v", tc.name, tc.want)
			continue
		}
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v (%q), want errors.Is(err, %v)", tc.name, err, err, tc.want)
		}
		// Distinctness: the error matches only its own sentinel.
		for _, other := range []error{
			ErrDuplicateTerminal, ErrDispatchBeforeConfirm, ErrTimeRegression,
			ErrClockRegression, ErrDuplicateEnqueue, ErrConfirmBeforeEnqueue,
			ErrAfterTerminal, ErrTerminalBeforeEnqueue, ErrPanicOutsideDispatch,
			ErrOpenEvents, ErrDispatchBeforePolicy, ErrDispatchBeforeEnqueue,
		} {
			if other != tc.want && errors.Is(err, other) {
				t.Errorf("%s: error also matches unrelated sentinel %v", tc.name, other)
			}
		}
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error is not a *ValidationError: %T", tc.name, err)
		}
	}

	if _, err := Validate(validBase()); err != nil {
		t.Fatalf("baseline trace should validate: %v", err)
	}
	// A callback that panics does so after its dispatch record: the
	// kernel's panic record follows the terminal dispatch.
	inDispatch := append(validBase(), Record{Seq: 5, VT: 4 * sim.Millisecond, Thread: 1, Scope: 1, Op: OpPanic, API: "fetch", Event: 1})
	if _, err := Validate(inDispatch); err != nil {
		t.Fatalf("panic inside a dispatch should validate: %v", err)
	}
}

// TestValidatorSeqOrderTyped covers the one case the shared table can't
// (the renumbering loop would repair it).
func TestValidatorSeqOrderTyped(t *testing.T) {
	recs := validBase()
	recs[2].Seq = 2
	_, err := Validate(recs)
	if !errors.Is(err, ErrSeqOrder) {
		t.Fatalf("got %v, want ErrSeqOrder", err)
	}
}

// TestValidatorExemptsAccessAndEdge pins the hb record kinds' exemption
// from per-thread VT monotonicity: access records carry in-task cursor
// times that interleave freely with kernel-stamped records.
func TestValidatorExemptsAccessAndEdge(t *testing.T) {
	recs := []Record{
		{Seq: 1, VT: 5 * sim.Millisecond, Thread: 1, Op: OpAccess, API: "buffer", Action: "w", Value: 7},
		{Seq: 2, VT: 1 * sim.Millisecond, Thread: 1, Op: OpAccess, API: "buffer", Action: "r", Value: 7},
		{Seq: 3, VT: 4 * sim.Millisecond, Thread: 1, Op: OpEdge, API: "sab-lock", Action: "acq", Value: 7},
		{Seq: 4, VT: 2 * sim.Millisecond, Thread: 1, Op: OpEdge, API: "sab-lock", Action: "rel", Value: 7},
	}
	if _, err := Validate(recs); err != nil {
		t.Fatalf("access/edge records must be exempt from per-thread monotonicity: %v", err)
	}
}

// TestRecordsRoundTrip pins the JSONL codec: export → import is the
// identity on every Record field, including the new access/edge kinds.
func TestRecordsRoundTrip(t *testing.T) {
	recs := validBase()
	recs = append(recs,
		Record{Seq: 5, Run: 2, VT: 6 * sim.Millisecond, Thread: 2, Scope: 3, WorkerID: 1,
			Op: OpAccess, API: "worker", Action: "wg", Value: 1, Aux: 3},
		Record{Seq: 6, Run: 2, VT: 6 * sim.Millisecond, Thread: 2, Scope: 3,
			Op: OpEdge, API: "sys", Action: "rel", Value: 9},
		Record{Seq: 7, Run: 2, VT: 7 * sim.Millisecond, Thread: 1, Op: OpNative,
			API: "shared-buffer-op", Reason: "read", URL: "https://a.example/x", Depth: 2},
	)
	var buf bytes.Buffer
	w := NewRecordWriter(&buf)
	w.WriteAll(recs)
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip length %d, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d drifted:\n got %+v\nwant %+v", i, got[i], recs[i])
		}
	}
}
