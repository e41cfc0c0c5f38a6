package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// The cross-request forensics ledger. Per-response forensics (PR 5's
// obs detectors, PR 7's happens-before detector) judge one evaluation
// at a time, so a patient attacker splits the probe across requests:
// each request runs a short implicit-clock loop that stays under every
// per-request threshold — or probes a *defended* configuration, where
// per-request forensics reports clean by construction — and the
// campaign only exists in the aggregate. The ledger is that aggregate:
// it accumulates per-request signature fragments keyed by (tenant,
// scope, channel class), decays them per observed request (never per
// wall second — verdicts on a fixed request sequence must be
// deterministic), and flags when the decayed mass and the number of
// distinct contributing requests both cross their campaign thresholds.

// The ledger's thresholds. Integer arithmetic keeps the verdicts
// platform-independent.
const (
	// Each of a tenant's requests first scales that tenant's scores by
	// decayNum/decayDen, an integer floor division, before its own
	// fragments add, so old probing fades as a tenant sends innocuous
	// traffic.
	decayNum, decayDen = 3, 4
	// campaignScore is the decayed fragment mass at which an entry
	// flags.
	campaignScore = 96
	// campaignMinRequests is the minimum number of distinct contributing
	// requests before an entry may flag — the "no single request trips
	// it" guarantee: below this, no per-request fragment volume can
	// raise a campaign.
	campaignMinRequests = 3
	// RaceWeight scores one happens-before race finding relative to one
	// structural fragment event.
	RaceWeight = 16
)

// ClassFragment is one request's structural evidence on one channel
// class, already collapsed from the raw detector tallies by the caller
// (internal/serve maps obs fragment counters and hb race findings to
// channel classes).
type ClassFragment struct {
	// Class is the channel class: "implicit-clock", "event-loop-probe",
	// "queue-contention", or a happens-before target class ("worker",
	// "buffer", ...).
	Class string `json:"class"`
	// Score is the request's fragment mass on the class.
	Score int64 `json:"score"`
}

// SortedFragments renders a class→score map as fragments in class
// order, dropping non-positive scores — the deterministic shape Observe
// expects from callers that accumulate by map.
func SortedFragments(byClass map[string]int64) []ClassFragment {
	classes := make([]string, 0, len(byClass))
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	out := make([]ClassFragment, 0, len(classes))
	for _, c := range classes {
		if byClass[c] > 0 {
			out = append(out, ClassFragment{Class: c, Score: byClass[c]})
		}
	}
	return out
}

// LedgerKey identifies one accumulation cell.
type LedgerKey struct {
	// Tenant attributes traffic; the empty tenant accumulates as "".
	Tenant string `json:"tenant"`
	// Scope is the probed surface — the attack row the requests name.
	Scope string `json:"scope"`
	// Class is the channel class of the fragments.
	Class string `json:"class"`
}

// CampaignFinding is one flagged slow-probe campaign.
type CampaignFinding struct {
	LedgerKey
	// Score is the decayed accumulated mass at flag time.
	Score int64 `json:"score"`
	// Requests counts distinct requests that contributed fragments.
	Requests int `json:"requests"`
	// TenantRequests counts every request the tenant has sent.
	TenantRequests int `json:"tenant_requests"`
	// RequestIDs lists contributing request IDs (most recent last,
	// capped at 8) as cross-request evidence.
	RequestIDs []string `json:"request_ids"`
}

// ledgerEntry is one (tenant, scope, class) accumulator.
type ledgerEntry struct {
	score      int64
	requests   int
	flagged    bool // hysteresis: one finding per crossing
	requestIDs []string
}

const ledgerEvidenceCap = 8

// tenantLedger is one tenant's request count and accumulators, so a
// request decays only its own tenant's entries.
type tenantLedger struct {
	requests int
	entries  map[LedgerKey]*ledgerEntry
}

// Ledger accumulates fragments across requests. Observe runs on the
// plane's flusher, or inline on a submitter when the flusher queue is
// full or the plane is closed; the mutex serializes those calls and
// concurrent Report/WriteJSON snapshots.
type Ledger struct {
	mu       sync.Mutex
	tenants  map[string]*tenantLedger
	flagged  uint64
	observed uint64
}

// NewLedger builds an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{tenants: make(map[string]*tenantLedger)}
}

// Observe folds one request's fragments into the tenant's cells and
// returns any campaigns newly raised by this request. Every entry of
// the tenant decays first — innocuous requests reduce suspicion — then
// fragments add, then thresholds are checked with hysteresis: an entry
// flags once per crossing and re-arms only after decaying below half
// the campaign score.
func (l *Ledger) Observe(requestID, tenant, scope string, frags []ClassFragment) []CampaignFinding {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.observed++
	tl := l.tenants[tenant]
	if tl == nil {
		tl = &tenantLedger{entries: make(map[LedgerKey]*ledgerEntry)}
		l.tenants[tenant] = tl
	}
	tl.requests++

	for _, e := range tl.entries {
		e.score = e.score * decayNum / decayDen
		if e.flagged && e.score < campaignScore/2 {
			e.flagged = false
		}
	}

	var found []CampaignFinding
	for _, fr := range frags {
		if fr.Score <= 0 {
			continue
		}
		k := LedgerKey{Tenant: tenant, Scope: scope, Class: fr.Class}
		e := tl.entries[k]
		if e == nil {
			e = &ledgerEntry{}
			tl.entries[k] = e
		}
		e.score += fr.Score
		e.requests++
		if len(e.requestIDs) == ledgerEvidenceCap {
			copy(e.requestIDs, e.requestIDs[1:])
			e.requestIDs[len(e.requestIDs)-1] = requestID
		} else {
			e.requestIDs = append(e.requestIDs, requestID)
		}
		if !e.flagged && e.score >= campaignScore && e.requests >= campaignMinRequests {
			e.flagged = true
			l.flagged++
			found = append(found, CampaignFinding{
				LedgerKey:      k,
				Score:          e.score,
				Requests:       e.requests,
				TenantRequests: tl.requests,
				RequestIDs:     append([]string(nil), e.requestIDs...),
			})
		}
	}
	sort.Slice(found, func(i, j int) bool {
		if found[i].Scope != found[j].Scope {
			return found[i].Scope < found[j].Scope
		}
		return found[i].Class < found[j].Class
	})
	return found
}

// LedgerEntry is one accumulation cell of the report snapshot.
type LedgerEntry struct {
	LedgerKey
	Score    int64 `json:"score"`
	Requests int   `json:"requests"`
	Flagged  bool  `json:"flagged"`
}

// LedgerReport is the /ledgerz wire format and the CI artifact.
type LedgerReport struct {
	Observed  uint64        `json:"observed_requests"`
	Tenants   int           `json:"tenants"`
	Campaigns uint64        `json:"campaigns_flagged"`
	Entries   []LedgerEntry `json:"entries"`
}

// Report snapshots every cell, sorted by (tenant, scope, class).
func (l *Ledger) Report() LedgerReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	rep := LedgerReport{Observed: l.observed, Tenants: len(l.tenants), Campaigns: l.flagged}
	n := 0
	for _, tl := range l.tenants {
		n += len(tl.entries)
	}
	entries := make([]LedgerEntry, 0, n)
	for _, tl := range l.tenants {
		for k, e := range tl.entries {
			entries = append(entries, LedgerEntry{LedgerKey: k, Score: e.score, Requests: e.requests, Flagged: e.flagged})
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.Tenant != b.Tenant {
			return a.Tenant < b.Tenant
		}
		if a.Scope != b.Scope {
			return a.Scope < b.Scope
		}
		return a.Class < b.Class
	})
	rep.Entries = entries
	return rep
}

// Campaigns reports how many campaign findings the ledger has raised.
func (l *Ledger) Campaigns() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flagged
}

// WriteJSON renders the report as deterministic indented JSON.
func (l *Ledger) WriteJSON(w io.Writer) error {
	rep := l.Report()
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
