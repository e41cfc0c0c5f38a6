package telemetry

import (
	"strings"
	"testing"

	"jskernel/internal/trace"
)

func metricsFixture(t *testing.T) *trace.Metrics {
	t.Helper()
	sess := trace.NewSession()
	m := sess.Metrics()
	m.Installs = 2
	m.Enqueued = 5
	m.Dispatched = 4
	m.DispatchLatency.Observe(100)
	m.DispatchLatency.Observe(3000)
	sess.Close()
	return m
}

func TestPlaneFoldsAndPublishes(t *testing.T) {
	p := NewPlane(0)
	defer p.Close()
	m := metricsFixture(t)
	p.SubmitEval(&EvalRecord{
		RequestID: "req-1",
		Tenant:    "t1",
		Scope:     "loopscan",
		Metrics:   m,
		Forensics: map[string]bool{"flagged": false},
	})
	p.SubmitSpan(&Span{RequestID: "req-1", Attack: "loopscan", Defense: "none", EvalNs: 5})
	p.Barrier()

	agg := p.KernelSnapshot()
	if agg.Requests != 1 || agg.Enqueued != 5 || agg.DispatchLatency.Total != 2 {
		t.Fatalf("aggregate = %+v", agg)
	}
	sp := p.SpanSnapshot()
	if sp.Count != 1 || sp.Failed != 0 {
		t.Fatalf("span stats = %+v", sp)
	}
	evs, gap := p.Hub.Since(0, 0)
	if gap != nil {
		t.Fatalf("gap on fresh hub: %+v", gap)
	}
	types := make([]string, 0, len(evs))
	for _, ev := range evs {
		types = append(types, ev.Type)
	}
	if len(types) != 2 || types[0] != EventForensics || types[1] != EventSpan {
		t.Fatalf("published types = %v", types)
	}
}

func TestPlaneSubmitAfterCloseNeverDrops(t *testing.T) {
	p := NewPlane(0)
	p.Close()
	p.SubmitEval(&EvalRecord{RequestID: "late", Metrics: metricsFixture(t)})
	if agg := p.KernelSnapshot(); agg.Requests != 1 {
		t.Fatalf("post-close submit dropped: %+v", agg)
	}
	_, _, syncApplied, _ := p.FlushStats()
	if syncApplied != 1 {
		t.Fatalf("post-close inline apply not counted: %d", syncApplied)
	}
	// The hub is closed, so the event side is a counted no-op, not a hang.
	published, _ := p.Hub.Counts()
	if published["after-close"] == 0 && published[EventForensics] != 0 {
		t.Fatalf("unexpected hub counts after close: %+v", published)
	}
}

func TestPlaneBatches(t *testing.T) {
	p := NewPlane(0)
	defer p.Close()
	const n = 100
	for i := 0; i < n; i++ {
		p.SubmitSpan(&Span{RequestID: "r", Attack: "a", Defense: "d"})
	}
	p.Barrier()
	batches, items, _, fallbacks := p.FlushStats()
	if items != n+1 { // +1 for the barrier item
		t.Fatalf("items = %d, want %d", items, n+1)
	}
	if got := p.SpanSnapshot().Count; got != n {
		t.Fatalf("span count = %d, want %d", got, n)
	}
	if batches+fallbacks > n+1 {
		t.Fatalf("no batching happened: batches=%d fallbacks=%d", batches, fallbacks)
	}
}

func TestPlaneCampaignFlowsToHub(t *testing.T) {
	p := NewPlane(0)
	defer p.Close()
	for i := 0; i < 3; i++ {
		p.SubmitEval(&EvalRecord{
			RequestID: "r",
			Tenant:    "t",
			Scope:     "loopscan",
			Fragments: probe(48),
		})
	}
	p.Barrier()
	evs, _ := p.Hub.Since(0, 0)
	var campaigns int
	for _, ev := range evs {
		if ev.Type == EventCampaign {
			campaigns++
		}
	}
	if campaigns != 1 {
		t.Fatalf("campaign events = %d, want 1", campaigns)
	}
	if p.Ledger.Campaigns() != 1 {
		t.Fatalf("ledger campaigns = %d", p.Ledger.Campaigns())
	}
}

func TestPlaneExpositionSelfChecks(t *testing.T) {
	p := NewPlane(0)
	defer p.Close()
	p.SubmitEval(&EvalRecord{RequestID: "r", Metrics: metricsFixture(t)})
	p.SubmitSpan(&Span{RequestID: "r", Attack: "a", Defense: "d", EvalNs: 100})
	p.Barrier()
	agg := p.KernelSnapshot()
	sp := p.SpanSnapshot()
	fams := agg.Families()
	fams = append(fams, sp.Families()...)
	fams = append(fams, p.Families()...)
	var sb strings.Builder
	if err := WriteExposition(&sb, fams); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, err := ParseExposition(sb.String()); err != nil {
		t.Fatalf("full plane exposition failed self-check: %v\n%s", err, sb.String())
	}
}
