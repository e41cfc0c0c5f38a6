package telemetry

import (
	"bytes"
	"fmt"
	"testing"
)

func probe(score int64) []ClassFragment {
	return []ClassFragment{{Class: "implicit-clock", Score: score}}
}

func TestLedgerSingleRequestNeverFlags(t *testing.T) {
	l := NewLedger(DefaultLedgerConfig())
	// One request with enormous fragment mass must not raise a campaign:
	// CampaignMinRequests guards the "each request stays clean" contract.
	found := l.Observe("r1", "t1", "loopscan", probe(1_000_000))
	if len(found) != 0 {
		t.Fatalf("single request flagged a campaign: %+v", found)
	}
}

func TestLedgerCampaignAcrossRequests(t *testing.T) {
	l := NewLedger(DefaultLedgerConfig())
	var found []CampaignFinding
	reqs := 0
	for i := 0; i < 10 && len(found) == 0; i++ {
		reqs++
		found = l.Observe(fmt.Sprintf("r%d", i), "t1", "loopscan", probe(48))
	}
	if len(found) != 1 {
		t.Fatalf("campaign not raised after %d requests", reqs)
	}
	f := found[0]
	if f.Tenant != "t1" || f.Scope != "loopscan" || f.Class != "implicit-clock" {
		t.Fatalf("finding key = %+v", f.LedgerKey)
	}
	if f.Requests < 3 {
		t.Fatalf("campaign with %d requests, want >= 3", f.Requests)
	}
	if len(f.RequestIDs) != f.Requests {
		t.Fatalf("evidence ids = %d, requests = %d", len(f.RequestIDs), f.Requests)
	}
	// Hysteresis: continuing the campaign must not duplicate the finding
	// while the score stays above half the threshold.
	more := l.Observe("rX", "t1", "loopscan", probe(48))
	if len(more) != 0 {
		t.Fatalf("duplicate campaign finding: %+v", more)
	}
}

func TestLedgerDecayOnInnocuousTraffic(t *testing.T) {
	cfg := DefaultLedgerConfig()
	l := NewLedger(cfg)
	l.Observe("r1", "t1", "loopscan", probe(64))
	// 20 innocuous requests decay the entry toward zero.
	for i := 0; i < 20; i++ {
		l.Observe(fmt.Sprintf("q%d", i), "t1", "other", nil)
	}
	rep := l.Report()
	if len(rep.Entries) != 1 {
		t.Fatalf("entries = %+v", rep.Entries)
	}
	if rep.Entries[0].Score != 0 {
		t.Fatalf("score after 20 decays = %d, want 0", rep.Entries[0].Score)
	}
	// A different tenant's entries must not decay.
	l2 := NewLedger(cfg)
	l2.Observe("r1", "t1", "loopscan", probe(64))
	l2.Observe("r2", "t2", "other", nil)
	if s := l2.Report().Entries[0].Score; s != 64 {
		t.Fatalf("cross-tenant decay: score = %d, want 64", s)
	}
}

func TestLedgerDeterministicForFixedSequence(t *testing.T) {
	run := func() []byte {
		l := NewLedger(DefaultLedgerConfig())
		for i := 0; i < 50; i++ {
			tenant := fmt.Sprintf("t%d", i%3)
			scope := []string{"loopscan", "cve-mirror"}[i%2]
			frags := []ClassFragment{
				{Class: "implicit-clock", Score: int64(10 + i%7)},
				{Class: "worker", Score: int64(i % 5)},
			}
			l.Observe(fmt.Sprintf("r%d", i), tenant, scope, frags)
		}
		var buf bytes.Buffer
		if err := l.WriteJSON(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("ledger report not deterministic:\n%s\n---\n%s", a, b)
	}
}

func TestLedgerEvidenceCap(t *testing.T) {
	l := NewLedger(LedgerConfig{CampaignScore: 1 << 40})
	for i := 0; i < 20; i++ {
		l.Observe(fmt.Sprintf("r%d", i), "t", "s", probe(1000))
	}
	rep := l.Report()
	if rep.Entries[0].Requests != 20 {
		t.Fatalf("requests = %d", rep.Entries[0].Requests)
	}
	l.mu.Lock()
	e := l.tenants["t"].entries[LedgerKey{Tenant: "t", Scope: "s", Class: "implicit-clock"}]
	ids := append([]string(nil), e.requestIDs...)
	l.mu.Unlock()
	if len(ids) != ledgerEvidenceCap {
		t.Fatalf("evidence ids = %d, want %d", len(ids), ledgerEvidenceCap)
	}
	if ids[len(ids)-1] != "r19" {
		t.Fatalf("evidence not most-recent-last: %v", ids)
	}
}
