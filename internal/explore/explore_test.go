package explore

import (
	"encoding/json"
	"testing"

	"jskernel/internal/vuln"
)

// TestTokenRoundTrip pins the v1 token format.
func TestTokenRoundTrip(t *testing.T) {
	cases := []Token{
		{CVE: vuln.CVE20185092, Defense: "chrome", RootSeed: 42},
		{CVE: vuln.CVE20143194, Defense: "jskernel-chrome", RootSeed: -7, Vector: []int{0, 2, 1}},
	}
	for _, tok := range cases {
		got, err := ParseToken(tok.String())
		if err != nil {
			t.Fatalf("parse %q: %v", tok.String(), err)
		}
		if got.CVE != tok.CVE || got.Defense != tok.Defense || got.RootSeed != tok.RootSeed {
			t.Fatalf("round trip %q -> %+v", tok.String(), got)
		}
		if len(got.Vector) != len(tok.Vector) {
			t.Fatalf("vector round trip %q -> %v", tok.String(), got.Vector)
		}
		for i := range tok.Vector {
			if got.Vector[i] != tok.Vector[i] {
				t.Fatalf("vector round trip %q -> %v", tok.String(), got.Vector)
			}
		}
	}
}

// TestTokenRejectsMalformed covers the parse failure modes.
func TestTokenRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"v2:CVE-2018-5092:chrome:42:-",
		"v1:CVE-9999-0000:chrome:42:-",
		"v1:CVE-2018-5092::42:-",
		"v1:CVE-2018-5092:chrome:x:-",
		"v1:CVE-2018-5092:chrome:42:0.z",
		"v1:CVE-2018-5092:chrome:42:0.-3",
		"v1:CVE-2018-5092:chrome:42",
	}
	for _, s := range bad {
		if _, err := ParseToken(s); err == nil {
			t.Fatalf("ParseToken(%q) accepted malformed input", s)
		}
	}
}

// TestPCTDeterministic: the same (seed, depth, horizon) replays the same
// priority decisions.
func TestPCTDeterministic(t *testing.T) {
	mk := func() []int {
		p := NewPCT(99, 3, 16)
		var picks []int
		cands := fakeCands(4)
		for i := 0; i < 20; i++ {
			picks = append(picks, p.Choose(0, cands))
		}
		return picks
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("PCT diverged at decision %d: %v vs %v", i, a, b)
		}
	}
}

// TestPCTSeedsDiffer: different seeds explore different schedules (the
// whole point of the budget loop). With 4 candidates over 20 decisions
// a collision across all decisions is astronomically unlikely.
func TestPCTSeedsDiffer(t *testing.T) {
	run := func(seed int64) []int {
		p := NewPCT(seed, 3, 16)
		var picks []int
		cands := fakeCands(4)
		for i := 0; i < 20; i++ {
			picks = append(picks, p.Choose(0, cands))
		}
		return picks
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("seeds 1 and 2 produced identical schedules %v", a)
	}
}

// TestReplayExhaustionDefaults: past the vector, replay picks index 0.
func TestReplayExhaustionDefaults(t *testing.T) {
	r := NewReplay([]int{1, 9})
	cands := fakeCands(3)
	if got := r.Choose(0, cands); got != 1 {
		t.Fatalf("decision 0 = %d, want 1", got)
	}
	if got := r.Choose(0, cands); got != 0 {
		t.Fatalf("out-of-range decision = %d, want fallback 0", got)
	}
	if got := r.Choose(0, cands); got != 0 {
		t.Fatalf("exhausted decision = %d, want 0", got)
	}
}

// TestMatrixSmoke runs the exploration end-to-end on two CVEs with a
// tiny budget: both must be discovered (chrome is the undefended
// baseline), every token must replay byte-identically, and the whole
// report must be byte-identical serial vs parallel — the determinism
// acceptance criterion at two pool widths.
func TestMatrixSmoke(t *testing.T) {
	cfg := Config{
		Seed:       42,
		Budget:     2,
		Depth:      3,
		DPORBudget: 6,
		Parallel:   1,
		DefenseID:  "chrome",
		CVEs:       []vuln.CVE{vuln.CVE20185092, vuln.CVE20143194},
	}
	serial, err := Matrix(cfg)
	if err != nil {
		t.Fatalf("matrix (serial): %v", err)
	}
	if serial.Discovered != 2 {
		t.Fatalf("discovered %d/2 cells: %+v", serial.Discovered, serial.Cells)
	}
	for _, c := range serial.Cells {
		if c.Discovery == nil {
			t.Fatalf("cell %s undiscovered", c.CVE)
		}
		if !c.Discovery.ReplayIdentical {
			t.Fatalf("cell %s: replay of %s not byte-identical", c.CVE, c.Discovery.Token)
		}
		if c.Discovery.Finding.Class != c.Channel {
			t.Fatalf("cell %s: finding on class %q, want channel %q", c.CVE, c.Discovery.Finding.Class, c.Channel)
		}
	}

	cfg.Parallel = 4
	par, err := Matrix(cfg)
	if err != nil {
		t.Fatalf("matrix (parallel): %v", err)
	}
	sj, _ := json.Marshal(serial)
	pj, _ := json.Marshal(par)
	if string(sj) != string(pj) {
		t.Fatalf("report differs across pool widths:\nserial:   %s\nparallel: %s", sj, pj)
	}
}

// TestReplayRunMatchesLiveFinding: a hand-built default-order token for
// an exploited cell reproduces a channel race deterministically, twice.
func TestReplayRunMatchesLiveFinding(t *testing.T) {
	tok := Token{CVE: vuln.CVE20185092, Defense: "chrome", RootSeed: 42}
	a, err := ReplayRun(tok)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if firstOn(a, "worker") == nil {
		t.Fatalf("default schedule shows no worker race: %+v", a)
	}
	b, err := ReplayRun(tok)
	if err != nil {
		t.Fatalf("replay (again): %v", err)
	}
	if findingsJSON(a) != findingsJSON(b) {
		t.Fatalf("two replays of %s differ", tok.String())
	}
}
