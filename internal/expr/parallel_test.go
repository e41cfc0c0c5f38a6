package expr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"jskernel/internal/attack"
	"jskernel/internal/trace"
)

// table1Run captures everything observable about one Table I run: the
// rendered table, the full outcome maps, and a SHA-256 digest of the
// validated merged trace's JSONL stream. The parallel runner's contract
// is that none of it depends on the worker-pool width. JSONL round-trips
// every record field (FuzzReadRecords pins that), so equal digests mean
// equal traces; the parent session streams into the hash and retains
// nothing.
type table1Run struct {
	table   []byte
	timing  map[string]map[string]attack.Outcome
	cve     map[string]map[string]attack.Outcome
	digest  string
	records int
	metrics *trace.Metrics
}

// The serial traced Table I pass (table1Config at seed 42): the SHA-256
// of its merged trace's JSONL stream and its record count.
const (
	table1TraceDigest  = "ef6f7fc54e0cf35dfea3b005c016b0b9bb49002c3445e5de4ef8d2c588c09eb7"
	table1TraceRecords = 3139585
)

// table1Config is the traced Table I configuration under test at one
// pool width.
func table1Config(width int) Config {
	cfg := QuickConfig()
	// Two reps keep the rep-merge path honest (rep order matters in
	// MergeSamples) while holding two full traced Table I runs inside
	// the race-detector stage's time budget.
	cfg.Reps = 2
	cfg.Parallel = width
	cfg.Trace = trace.NewSession()
	return cfg
}

func runTable1AtWidth(t *testing.T, width int) table1Run {
	t.Helper()
	cfg := table1Config(width)
	cfg.Trace.SetRetain(false)
	h := sha256.New()
	rw := trace.NewRecordWriter(h)
	sv := trace.NewStreamValidator(false)
	accts := scopeAccounts{}
	cfg.Trace.Attach(rw)
	cfg.Trace.Attach(sv)
	cfg.Trace.Attach(accts)
	res, err := Table1(cfg)
	if err != nil {
		t.Fatalf("Table1(parallel=%d): %v", width, err)
	}
	cfg.Trace.Close()
	if err := rw.Flush(); err != nil {
		t.Fatalf("parallel=%d: hashing the trace: %v", width, err)
	}
	if cfg.Trace.Len() == 0 {
		t.Fatalf("parallel=%d: merged trace is empty", width)
	}
	rep, err := sv.Finish()
	if err != nil {
		t.Fatalf("parallel=%d: merged trace violates kernel invariants: %v", width, err)
	}
	if rep.Enqueued == 0 || rep.Dispatched == 0 {
		t.Fatalf("parallel=%d: degenerate trace: %d enqueued, %d dispatched", width, rep.Enqueued, rep.Dispatched)
	}
	accts.check(t, rep.Scopes)
	// The session's incrementally maintained metrics must agree with the
	// validator's replay of the same records.
	m := cfg.Trace.Metrics()
	if m.Enqueued != uint64(rep.Enqueued) || m.Dispatched != uint64(rep.Dispatched) || m.Shed != uint64(rep.Shed) ||
		m.Cancelled != uint64(rep.Cancelled) || m.Expired != uint64(rep.Expired) {
		t.Fatalf("parallel=%d: metrics diverge from the validator: metrics enq=%d disp=%d shed=%d canc=%d exp=%d, validator %+v",
			width, m.Enqueued, m.Dispatched, m.Shed, m.Cancelled, m.Expired, *rep)
	}
	var tb bytes.Buffer
	if err := res.Table.Render(&tb); err != nil {
		t.Fatalf("render: %v", err)
	}
	return table1Run{
		table:   tb.Bytes(),
		timing:  res.Timing,
		cve:     res.CVE,
		digest:  hex.EncodeToString(h.Sum(nil)),
		records: cfg.Trace.Len(),
		metrics: cfg.Trace.Metrics(),
	}
}

// scopeAccounts is a trace sink counting, per kernelized scope, enqueued
// events and terminal records, so the accounting equation
// dispatched + shed + cancelled + expired == enqueued is checked for
// every kernel, not just in aggregate.
type scopeAccounts map[int]struct{ enqueued, terminal int }

func (a scopeAccounts) Observe(r trace.Record) {
	if r.Scope == 0 || r.Event == 0 {
		return
	}
	c := a[r.Scope]
	switch {
	case r.Op == trace.OpEnqueue:
		c.enqueued++
	case r.Op.Terminal():
		c.terminal++
	}
	a[r.Scope] = c
}

// check fails on any scope whose events are not all accounted for.
// Scopes with no event traffic (install-only frames and workers) count
// among the validator's scopes but not here.
func (a scopeAccounts) check(t *testing.T, scopes int) {
	t.Helper()
	if len(a) == 0 || len(a) > scopes {
		t.Fatalf("event-bearing scopes = %d, validator scopes = %d", len(a), scopes)
	}
	ids := make([]int, 0, len(a))
	for s := range a {
		ids = append(ids, s)
	}
	sort.Ints(ids)
	for _, s := range ids {
		if c := a[s]; c.terminal != c.enqueued {
			t.Errorf("scope %d: %d terminal records for %d enqueued events", s, c.terminal, c.enqueued)
		}
	}
}

// firstDivergence re-runs Table I at two widths retaining every record
// and describes the first record on which the merged traces differ.
func firstDivergence(t *testing.T, wa, wb int) string {
	t.Helper()
	retained := func(width int) []trace.Record {
		cfg := table1Config(width)
		if _, err := Table1(cfg); err != nil {
			t.Fatalf("Table1(parallel=%d): %v", width, err)
		}
		cfg.Trace.Close()
		return cfg.Trace.Records()
	}
	a, b := retained(wa), retained(wb)
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("first divergence at record %d:\n a: %s\n b: %s", i, trace.FormatRecord(a[i]), trace.FormatRecord(b[i]))
		}
	}
	return fmt.Sprintf("one trace is a prefix of the other (%d vs %d records)", len(a), len(b))
}

func assertRunsEqual(t *testing.T, label string, wa, wb int, a, b table1Run) {
	t.Helper()
	if !bytes.Equal(a.table, b.table) {
		t.Errorf("%s: rendered tables differ:\n--- a ---\n%s\n--- b ---\n%s", label, a.table, b.table)
	}
	if !reflect.DeepEqual(a.timing, b.timing) {
		t.Errorf("%s: timing outcome maps differ (samples, channels, or verdicts)", label)
	}
	if !reflect.DeepEqual(a.cve, b.cve) {
		t.Errorf("%s: CVE outcome maps differ", label)
	}
	if a.digest != b.digest {
		t.Errorf("%s: merged traces differ (%d vs %d records); %s", label, a.records, b.records, firstDivergence(t, wa, wb))
	}
	if !reflect.DeepEqual(a.metrics, b.metrics) {
		t.Errorf("%s: trace metrics differ:\n a: %+v\n b: %+v", label, a.metrics, b.metrics)
	}
}

// TestTable1ParallelByteIdentical is the determinism guard for the
// worker pool: Table I evaluated serially and on an 8-wide pool must
// agree on every byte — rendered table, per-cell outcomes including raw
// samples, and the validated merged kernel trace — and both traces must
// match the pinned digest, so a change that moved every width alike
// fails too. Run-to-run equality of the outcomes is
// TestTable1PlainDeterminism's.
func TestTable1ParallelByteIdentical(t *testing.T) {
	serial := runTable1AtWidth(t, 1)
	par := runTable1AtWidth(t, 8)
	for _, r := range []struct {
		label string
		run   table1Run
	}{{"serial", serial}, {"parallel(8)", par}} {
		if r.run.digest != table1TraceDigest || r.run.records != table1TraceRecords {
			t.Errorf("%s: trace digest %s over %d records, want %s over %d",
				r.label, r.run.digest, r.run.records, table1TraceDigest, table1TraceRecords)
		}
	}
	assertRunsEqual(t, "serial vs parallel(8)", 1, 8, serial, par)
}

// TestTable2Table3ParallelByteIdentical extends the width-independence
// guard to the other cell-parallel table drivers (untraced, to keep the
// test quick — Table I above covers trace merging).
func TestTable2Table3ParallelByteIdentical(t *testing.T) {
	render := func(width int) []byte {
		cfg := QuickConfig()
		cfg.Parallel = width
		var buf bytes.Buffer
		t2, err := Table2(cfg)
		if err != nil {
			t.Fatalf("Table2(parallel=%d): %v", width, err)
		}
		if err := t2.Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		t3, err := Table3(cfg)
		if err != nil {
			t.Fatalf("Table3(parallel=%d): %v", width, err)
		}
		if err := t3.Table.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(render(1), render(8)) {
		t.Fatal("Table II/III output depends on the worker-pool width")
	}
}
