package expr

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestRaceTable1 is the race re-judging gate for Table I's CVE half:
// every exploited cell shows at least one happens-before race on the
// CVE's channel target class, every defended cell shows none, the race
// matrix is byte-identical between serial and 8-wide parallel
// execution, and the race-judged verdicts equal the plain Table I
// verdicts (the detector never perturbs execution).
func TestRaceTable1(t *testing.T) {
	serial := raceAt(t, 1)

	if len(serial.Mismatches) != 0 {
		for _, m := range serial.Mismatches {
			t.Errorf("race mismatch: %s", m)
		}
		t.Fatalf("%d cells disagree between race and actual verdicts", len(serial.Mismatches))
	}
	for _, c := range serial.Cells {
		if c.Channel == "" {
			t.Errorf("cell %s/%s has no channel class", c.Row, c.Defense)
		}
		if c.ActualDefended && c.ChannelRaces != 0 {
			t.Errorf("defended cell %s/%s shows %d races on %q", c.Row, c.Defense, c.ChannelRaces, c.Channel)
		}
		if !c.ActualDefended && c.ChannelRaces == 0 {
			t.Errorf("exploited cell %s/%s shows no race on %q", c.Row, c.Defense, c.Channel)
		}
		if c.Flagged {
			if len(c.Findings) == 0 {
				t.Errorf("flagged cell %s/%s carries no findings", c.Row, c.Defense)
			}
			for _, f := range c.Findings {
				if f.Class != c.Channel {
					t.Errorf("cell %s/%s finding on class %q, want channel %q", c.Row, c.Defense, f.Class, c.Channel)
				}
				if len(f.Evidence) != 2 {
					t.Errorf("cell %s/%s finding without a two-site evidence chain: %v", c.Row, c.Defense, f.Evidence)
				}
				if f.Second.VC == "" {
					t.Errorf("cell %s/%s finding without vector-clock annotation", c.Row, c.Defense)
				}
			}
		} else if len(c.Findings) != 0 {
			t.Errorf("unflagged cell %s/%s carries findings", c.Row, c.Defense)
		}
	}
	if len(serial.Findings()) == 0 {
		t.Fatalf("no flagged cells at all: legacy browsers should be exploited")
	}

	parallel := raceAt(t, 8)
	sb := mustJSON(t, serial)
	pb := mustJSON(t, parallel)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("race matrix differs between -parallel 1 and -parallel 8")
	}

	// Cross-check: racing the cells reaches exactly the verdicts the
	// plain Table I run reaches.
	t1 := table1Reps3(t)
	for _, c := range serial.Cells {
		want, ok := t1.Defended(c.Row, c.Defense)
		if !ok {
			t.Fatalf("Table1 has no cell %s/%s", c.Row, c.Defense)
		}
		if c.ActualDefended != want {
			t.Errorf("cell %s/%s: race-run verdict defended=%v, Table1 says %v",
				c.Row, c.Defense, c.ActualDefended, want)
		}
	}
}

// TestRaceGoldenCVE20185092 pins the race report for the CVE-2018-5092
// row against a checked-in golden file (use -update to regenerate after
// an intentional behaviour change). The golden carries the full
// findings: both access sites, epochs and vector clocks.
func TestRaceGoldenCVE20185092(t *testing.T) {
	res := raceAt(t, 8)
	var row []RaceCell
	for _, c := range res.Cells {
		if c.Row == "CVE-2018-5092" {
			row = append(row, c)
		}
	}
	if len(row) == 0 {
		t.Fatalf("no CVE-2018-5092 cells in the race matrix")
	}
	got := mustJSON(t, row)

	checkGolden(t, filepath.Join("testdata", "races_cve-2018-5092.golden.json"), got)
}
