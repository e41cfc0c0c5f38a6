package telemetry

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
)

func probe(score int64) []ClassFragment {
	return []ClassFragment{{Class: "implicit-clock", Score: score}}
}

func TestLedgerSingleRequestNeverFlags(t *testing.T) {
	l := NewLedger()
	// One request with enormous fragment mass must not raise a campaign:
	// campaignMinRequests guards the "each request stays clean" contract.
	found := l.Observe("r1", "t1", "loopscan", probe(1_000_000))
	if len(found) != 0 {
		t.Fatalf("single request flagged a campaign: %+v", found)
	}
}

func TestLedgerCampaignAcrossRequests(t *testing.T) {
	l := NewLedger()
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
	l := NewLedger()
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
	l2 := NewLedger()
	l2.Observe("r1", "t1", "loopscan", probe(64))
	l2.Observe("r2", "t2", "other", nil)
	if s := l2.Report().Entries[0].Score; s != 64 {
		t.Fatalf("cross-tenant decay: score = %d, want 64", s)
	}
}

func TestLedgerDeterministicForFixedSequence(t *testing.T) {
	run := func() []byte {
		l := NewLedger()
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

// TestLedgerArithmeticPinned pins the ledger's thresholds: one fixed
// request sequence that lands on each threshold's edge, its exact
// findings and the SHA-256 of the final /ledgerz rendering.
func TestLedgerArithmeticPinned(t *testing.T) {
	l := NewLedger()
	steps := []struct {
		tenant, scope string
		frags         []ClassFragment
	}{
		{"t1", "loopscan", probe(48)},        // r0: 48
		{"t2", "other", nil},                 // r1: another tenant, so t1 does not decay
		{"t1", "loopscan", probe(48)},        // r2: 36+48 = 84
		{"t1", "loopscan", probe(32)},        // r3: 63+32 = 95, one short of flagging
		{"t1", "loopscan", probe(25)},        // r4: 71+25 = 96 flags
		{"t1", "loopscan", probe(14)},        // r5: 72+14 = 86
		{"t1", "other", nil},                 // r6: 64
		{"t1", "loopscan", probe(48)},        // r7: 48 is not below half: 48+48 = 96, no second finding
		{"t1", "other", nil},                 // r8: 72
		{"t1", "other", nil},                 // r9: 54
		{"t1", "loopscan", probe(56)},        // r10: 40 re-arms, 40+56 = 96 flags again
		{"t2", "CVE-2018-5092", races(3, 2)}, // r11: buffer 48, worker 32
		{"t2", "CVE-2018-5092", races(5, 2)}, // r12: 36+80 = 116 from two requests does not flag, worker 56
		{"t2", "CVE-2018-5092", races(3, 4)}, // r13: 87+48 = 135 and 42+64 = 106 both flag
		{"t2", "CVE-2018-5092", append(probe(7), races(1, 0)...)},
	}
	var got []string
	for i, s := range steps {
		for _, f := range l.Observe(fmt.Sprintf("r%d", i), s.tenant, s.scope, s.frags) {
			got = append(got, fmt.Sprintf("%d %s/%s/%s score=%d requests=%d tenant=%d ids=%v",
				i, f.Tenant, f.Scope, f.Class, f.Score, f.Requests, f.TenantRequests, f.RequestIDs))
		}
	}
	want := []string{
		"4 t1/loopscan/implicit-clock score=96 requests=4 tenant=4 ids=[r0 r2 r3 r4]",
		"10 t1/loopscan/implicit-clock score=96 requests=7 tenant=10 ids=[r0 r2 r3 r4 r5 r7 r10]",
		"13 t2/CVE-2018-5092/race-buffer score=135 requests=3 tenant=4 ids=[r11 r12 r13]",
		"13 t2/CVE-2018-5092/race-worker score=106 requests=3 tenant=4 ids=[r11 r12 r13]",
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("findings:\n got %q\nwant %q", got, want)
	}
	var buf bytes.Buffer
	if err := l.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const wantDigest = "d864b6a2c366b5cf3fb018ab0007ccbedda0e7a79b98127d607f368e0556a43e"
	if d := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); d != wantDigest {
		t.Fatalf("/ledgerz digest = %s, want %s\n%s", d, wantDigest, buf.Bytes())
	}
}

// races scores buffer and worker race findings as serve's
// captureFragments does.
func races(buffer, worker int64) []ClassFragment {
	return SortedFragments(map[string]int64{"race-buffer": buffer * RaceWeight, "race-worker": worker * RaceWeight})
}

func TestLedgerEvidenceCap(t *testing.T) {
	l := NewLedger()
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
