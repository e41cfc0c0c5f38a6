package expr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"jskernel/internal/defense"
	"jskernel/internal/obs"
	"jskernel/internal/trace"
)

// The jsk-eval -table 1 -reps 1 -obs-report outputs at seed 42: the
// report (report.json then summary.txt), the folded profile stacks and
// the metrics JSON. They were taken before Absorb folded part registries
// and before the sinks' state moved behind last-key caches, so they pin
// both changes to the record-by-record results.
const (
	table1ObsReportDigest  = "2815911a8a1884482353c57ebe538f19ebd43fd2675b56fc3b2278d413c1c10e"
	table1ObsFoldedDigest  = "aba561fa100963ad4f69a57c3cdf6c1b3bd2d02150338da7cd2fc35d36e94ea5"
	table1ObsMetricsDigest = "d4ab4fb08ba4e219d8593b1c12cd416b60d48632aece7b36942aabb3f4dede25"
)

// obsOutputs is what one obs-on Table I pass renders.
type obsOutputs struct {
	report, folded, metrics string // SHA-256 digests
	summary                 []byte // the metrics summary
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// renderMetrics renders a registry's JSON and summary.
func renderMetrics(t *testing.T, m *trace.Metrics) ([]byte, []byte) {
	t.Helper()
	var js, sum bytes.Buffer
	if err := m.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if err := m.WriteSummary(&sum); err != nil {
		t.Fatalf("WriteSummary: %v", err)
	}
	return js.Bytes(), sum.Bytes()
}

// checkFold is Absorb's oracle on one part: a session that absorbs part
// past the given bases must render the same metrics as a fresh session
// that re-emits part's records one by one, shifted by the same bases —
// the way Absorb rebuilt the registry before it folded the part's. Scope
// 0 means "no scope" and stays 0. Interposition totals are counted
// outside records, so the re-emitting side adds them explicitly.
func checkFold(t *testing.T, cell int, part *trace.Session, runBase, scopeBase int) {
	t.Helper()
	folded := trace.NewSession()
	folded.SetRetain(false)
	for i := 0; i < runBase; i++ {
		folded.NextRun()
	}
	for i := 0; i < scopeBase; i++ {
		folded.NextScope()
	}
	if err := folded.Absorb(part); err != nil {
		t.Fatalf("cell %d: absorb: %v", cell, err)
	}

	replayed := trace.NewSession()
	replayed.SetRetain(false)
	for _, r := range part.Records() {
		if r.Run != 0 {
			r.Run += runBase
		}
		if r.Scope != 0 {
			r.Scope += scopeBase
		}
		replayed.Emit(r)
	}
	pm, rm := part.Metrics(), replayed.Metrics()
	rm.InterposeCrossings += pm.InterposeCrossings
	rm.InterposeVirtual += pm.InterposeVirtual

	fj, fs := renderMetrics(t, folded.Metrics())
	rj, rs := renderMetrics(t, rm)
	if !bytes.Equal(fj, rj) || !bytes.Equal(fs, rs) {
		t.Fatalf("cell %d: folded registry differs from the re-emitted one:\nfolded:\n%s%s\nre-emitted:\n%s%s", cell, fj, fs, rj, rs)
	}
	if folded.Len() != replayed.Len() || folded.MaxVT() != replayed.MaxVT() {
		t.Fatalf("cell %d: folded %d records to %v, re-emitted %d to %v",
			cell, folded.Len(), folded.MaxVT(), replayed.Len(), replayed.MaxVT())
	}
}

// table1ObsPass runs Table I at reps 1 with obs events on and the
// jsk-eval -obs-report sinks (profiler, detectors, validator) attached
// to a retain-off parent, and renders what jsk-eval would write. With
// oracle set, every cell's part is first checked against checkFold,
// shifted by the parent's run count so far.
func table1ObsPass(t *testing.T, width int, oracle bool) obsOutputs {
	t.Helper()
	cfg := QuickConfig()
	cfg.Reps = 1
	cfg.Parallel = width
	cfg.Obs = true
	cfg.Trace = trace.NewSession()
	cfg.Trace.SetRetain(false)
	prof := obs.NewProfiler()
	det := obs.NewDetectors(obs.DefaultDetectorConfig())
	sv := trace.NewStreamValidator(false)
	cfg.Trace.Attach(prof)
	cfg.Trace.Attach(det)
	cfg.Trace.Attach(sv)
	cell := 0
	absorb := func(part *trace.Session) error {
		if oracle {
			checkFold(t, cell, part, cfg.Trace.Runs(), cfg.Trace.Runs())
		}
		cell++
		return cfg.Trace.Absorb(part)
	}
	if _, err := table1MatrixInto(cfg, defense.TableIDefenses(), absorb); err != nil {
		t.Fatalf("Table I (parallel %d): %v", width, err)
	}
	cfg.Trace.Close()

	rep, verr := sv.Finish()
	if verr != nil {
		t.Fatalf("parallel %d: merged stream violates kernel invariants: %v", width, verr)
	}
	in := obs.ReportInput{
		Title:      "jsk-eval",
		Profiler:   prof,
		Signatures: det.Finish(),
		Metrics:    cfg.Trace.Metrics(),
		Validation: rep,
	}
	var report, folded bytes.Buffer
	if err := obs.WriteReportJSON(&report, in); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if err := obs.WriteReportSummary(&report, in); err != nil {
		t.Fatalf("report summary: %v", err)
	}
	if err := prof.WriteFolded(&folded); err != nil {
		t.Fatalf("folded profile: %v", err)
	}
	js, sum := renderMetrics(t, cfg.Trace.Metrics())
	return obsOutputs{
		report:  digest(report.Bytes()),
		folded:  digest(folded.Bytes()),
		metrics: digest(js),
		summary: sum,
	}
}

// TestTable1ObsOutputsAtAnyWidth pins Table I's obs outputs over the
// whole matrix: the report, the folded profile and the metrics the
// jsk-eval -obs-report flow writes must match their pinned digests at
// pool widths 1 and 8, and the metrics summaries must agree. The serial
// pass also checks Absorb's fold against per-record re-emission on every
// cell's part.
func TestTable1ObsOutputsAtAnyWidth(t *testing.T) {
	serial := table1ObsPass(t, 1, true)
	par := table1ObsPass(t, 8, false)
	for _, o := range []struct {
		name string
		out  obsOutputs
	}{{"parallel 1", serial}, {"parallel 8", par}} {
		if o.out.report != table1ObsReportDigest {
			t.Errorf("%s: obs report digest %s, want %s", o.name, o.out.report, table1ObsReportDigest)
		}
		if o.out.folded != table1ObsFoldedDigest {
			t.Errorf("%s: folded profile digest %s, want %s", o.name, o.out.folded, table1ObsFoldedDigest)
		}
		if o.out.metrics != table1ObsMetricsDigest {
			t.Errorf("%s: metrics JSON digest %s, want %s", o.name, o.out.metrics, table1ObsMetricsDigest)
		}
	}
	if !bytes.Equal(serial.summary, par.summary) {
		t.Errorf("metrics summary differs between -parallel 1 and -parallel 8:\nserial:\n%s\nparallel:\n%s",
			serial.summary, par.summary)
	}
}
