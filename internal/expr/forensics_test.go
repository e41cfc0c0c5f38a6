package expr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"path/filepath"
	"testing"
)

// -update regenerates the golden forensic findings, matching the
// golden-trace harness in internal/trace.
var updateForensics = flag.Bool("update", false, "rewrite golden forensic findings")

// forensicsMatrixSHA256 pins the whole forensic matrix at
// forensicsConfig: every cell's channel means and effect sizes, evidence
// Seqs and signatures, not only its verdict. A change that moves any of
// them while the verdicts still agree fails here; one that is meant to
// must say why and re-pin.
const forensicsMatrixSHA256 = "d21c9775e360987ef8f71dce3d79515199e8b793ac80b4619d3e260dba8463ca"

// TestForensicsTable1 is the golden forensics gate: every undefended
// Table I cell is flagged from the event stream alone, defended cells
// produce zero findings, the forensic matrix is byte-identical between
// serial and 8-wide parallel execution and matches its pinned digest,
// and running with observability on does not perturb the experiment's
// own verdicts.
func TestForensicsTable1(t *testing.T) {
	serial := forensicsAt(t, 1)

	if len(serial.Mismatches) != 0 {
		for _, m := range serial.Mismatches {
			t.Errorf("forensic mismatch: %s", m)
		}
		t.Fatalf("%d cells disagree between forensic and actual verdicts", len(serial.Mismatches))
	}
	for _, c := range serial.Cells {
		if c.ActualDefended && c.Flagged {
			t.Errorf("defended cell %s/%s produced a finding", c.Row, c.Defense)
		}
		if !c.ActualDefended && !c.Flagged {
			t.Errorf("undefended cell %s/%s not flagged", c.Row, c.Defense)
		}
	}
	findings := serial.Findings()
	if len(findings) == 0 {
		t.Fatalf("no findings at all: legacy browsers should be undefended")
	}
	for _, f := range findings {
		if !f.Flagged {
			t.Errorf("Findings returned unflagged cell %s/%s", f.Row, f.Defense)
		}
	}

	parallel := forensicsAt(t, 8)
	sb := mustJSON(t, serial)
	pb := mustJSON(t, parallel)
	if !bytes.Equal(sb, pb) {
		t.Fatalf("forensic matrix differs between -parallel 1 and -parallel 8")
	}
	if sum := sha256.Sum256(sb); hex.EncodeToString(sum[:]) != forensicsMatrixSHA256 {
		t.Fatalf("forensic matrix (%d bytes) has SHA-256 %x, want %s", len(sb), sum, forensicsMatrixSHA256)
	}

	// Cross-check: the obs-on matrix reaches exactly the verdicts the
	// plain (obs-off) Table I run reaches — observability events never
	// perturb execution.
	t1 := table1Reps3(t)
	for _, c := range serial.Cells {
		want, ok := t1.Defended(c.Row, c.Defense)
		if !ok {
			t.Fatalf("Table1 has no cell %s/%s", c.Row, c.Defense)
		}
		if c.ActualDefended != want {
			t.Errorf("cell %s/%s: obs-on verdict defended=%v, obs-off Table1 says %v",
				c.Row, c.Defense, c.ActualDefended, want)
		}
	}
}

// TestForensicsGoldenCVE20185092 pins the forensic findings for the
// CVE-2018-5092 row against a checked-in golden file (use -update to
// regenerate after an intentional behaviour change).
func TestForensicsGoldenCVE20185092(t *testing.T) {
	res := forensicsAt(t, 8)
	var row []ForensicsCell
	for _, c := range res.Cells {
		if c.Row == "CVE-2018-5092" {
			row = append(row, c)
		}
	}
	if len(row) == 0 {
		t.Fatalf("no CVE-2018-5092 cells in the forensic matrix")
	}
	got := mustJSON(t, row)

	checkGolden(t, filepath.Join("testdata", "forensics_cve-2018-5092.golden.json"), got)
}

// mustJSON marshals deterministically for byte comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return append(b, '\n')
}
