package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRequiresSelection(t *testing.T) {
	var b strings.Builder
	if err := run(&b, nil); err == nil {
		t.Fatal("no flags should be an error")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-bogus"}); err == nil {
		t.Fatal("bad flag should error")
	}
}

func TestRunTable3(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-table", "3"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"Table III", "amazon", "JSKernel (chrome)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestRunDromaeoCSV(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-dromaeo", "-csv"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Test,Chrome (ms),JSKernel (ms),Overhead") {
		t.Errorf("csv header missing:\n%s", out)
	}
	if !strings.Contains(out, "dom-attr") {
		t.Error("csv missing dom-attr row")
	}
}

func TestRunFig2WithOverrides(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-fig", "2", "-seed", "7", "-reps", "2"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Figure 2") || !strings.Contains(out, "slope jskernel-chrome") {
		t.Errorf("fig2 output incomplete:\n%s", out)
	}
}

func TestRunWorkersAndApps(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-workers", "-apps"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "16 workers") || !strings.Contains(out, "Fuzzyfox") {
		t.Errorf("combined output incomplete:\n%s", out)
	}
}

func TestRunAblation(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-ablation"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "Ablation A1") || !strings.Contains(out, "Ablation A2") {
		t.Errorf("ablation output incomplete:\n%s", out)
	}
}

func TestRunRemainingArtifacts(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-table", "2", "-fig", "3", "-compat", "-recovery", "-markdown"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Table II", "Figure 3", "cosine similarity", "recovery accuracy", "| --- |",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("combined output missing %q", want)
		}
	}
}

func TestRunChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("full chaos matrix via CLI")
	}
	var b strings.Builder
	if err := run(&b, []string{"-chaos"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"Chaos matrix", "flaky-net", "crashy-workers", "hostile-page",
		"every security verdict unchanged",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chaos output missing %q", want)
		}
	}
	if strings.Contains(out, "WEAKENED") {
		t.Errorf("chaos output reports weakened verdicts:\n%s", out)
	}
}

func TestRunTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix via CLI")
	}
	var b strings.Builder
	if err := run(&b, []string{"-table", "1", "-reps", "2"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CVE-2010-4576") {
		t.Error("table 1 output incomplete")
	}
}

// TestRunCell pins -cell's report for five Table I cells at seed 1:
// per-channel statistics for a timing row (non-finite effect sizes
// included), the registry's verdict for a CVE row, and the driver's note
// when the kernel's policy refused a trigger outright.
func TestRunCell(t *testing.T) {
	cases := []struct {
		cell, reps, want string
	}{
		{"svg-filtering/tor", "25", "" +
			"SVG Filtering [9] vs Tor Browser: ✗ vulnerable\n" +
			"  channel perf-now       meanA=100.000 meanB=500.000 cohens-d=+Inf leaks=true\n" +
			"  channel worker-ticks   meanA=58.000 meanB=477.000 cohens-d=+Inf leaks=true\n"},
		{"history-sniffing/chrome", "3", "" +
			"History Sniffing [9] vs Chrome: ✗ vulnerable\n" +
			"  channel perf-now       meanA=9.000 meanB=15.750 cohens-d=+Inf leaks=true\n" +
			"  channel worker-ticks   meanA=10.000 meanB=16.000 cohens-d=+Inf leaks=true\n"},
		{"loopscan/jskernel-chrome", "25", "" +
			"Loopscan [11] vs JSKernel (chrome): ✓ defended\n" +
			"  channel max-gap        meanA=1.000 meanB=1.000 cohens-d=0.00 leaks=false\n" +
			"  channel perf-now       meanA=1.000 meanB=1.000 cohens-d=0.00 leaks=false\n"},
		{"CVE-2017-7843/jskernel-chrome", "25", "" +
			"CVE-2017-7843 vs JSKernel (chrome): ✓ defended (exploited=false)\n" +
			"  driver note: jskernel: denied by security policy: IndexedDB in private browsing\n"},
		{"CVE-2013-1714/jskernel-chrome", "25", "" +
			"CVE-2013-1714 vs JSKernel (chrome): ✓ defended (exploited=false)\n"},
	}
	for _, c := range cases {
		t.Run(c.cell, func(t *testing.T) {
			var b strings.Builder
			if err := run(&b, []string{"-cell", c.cell, "-seed", "1", "-reps", c.reps}); err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != c.want {
				t.Errorf("-cell %s:\n%s\nwant:\n%s", c.cell, got, c.want)
			}
		})
	}
}

// TestRunRefusesUnfedObservability: -fig 2 and -recovery run nothing
// through the trace session, so asking them for -trace, -profile,
// -obs-report or -metrics is an error that names the flags, not an
// empty artifact.
func TestRunRefusesUnfedObservability(t *testing.T) {
	dir := t.TempDir()
	cases := [][]string{
		{"-fig", "2", "-metrics", filepath.Join(dir, "m.json")},
		{"-recovery", "-trace", filepath.Join(dir, "t.json")},
		{"-fig", "2", "-profile", filepath.Join(dir, "p.folded"), "-obs-report", filepath.Join(dir, "obs")},
	}
	for _, args := range cases {
		var b strings.Builder
		err := run(&b, args)
		if err == nil {
			t.Fatalf("%v ran:\n%s", args, b.String())
		}
		for _, a := range args {
			if strings.HasPrefix(a, "-") && a != "-fig" && a != "-recovery" && !strings.Contains(err.Error(), a) {
				t.Errorf("%v: error %q does not name %s", args, err, a)
			}
		}
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 0 {
		t.Errorf("refused runs wrote %d files", len(entries))
	}
}

// TestRunCellTraced: -cell feeds the run's trace session, so an
// observability output describes the cell rather than an empty run.
func TestRunCellTraced(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	var b strings.Builder
	if err := run(&b, []string{"-cell", "loopscan/jskernel-chrome", "-reps", "1", "-metrics", out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m struct{ Installs, Enqueued, Dispatched int }
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Installs == 0 || m.Enqueued == 0 || m.Dispatched == 0 {
		t.Errorf("-cell -metrics recorded installs=%d enqueued=%d dispatched=%d, want the cell's kernel activity", m.Installs, m.Enqueued, m.Dispatched)
	}
}

// TestRunCellRejects: a cell missing its row or defense, or naming an
// unknown one, is an error, and the error names the valid IDs.
func TestRunCellRejects(t *testing.T) {
	rows := []string{"svg-filtering", "loopscan", "CVE-2018-5092"}
	defenses := []string{"tor", "jskernel-chrome", "jskernel-edge"}
	cases := []struct {
		name, cell string
		want       []string
	}{
		{"missing row", "/chrome", rows},
		{"missing defense", "svg-filtering", defenses},
		{"unknown row", "quantum-leap/chrome", append([]string{`"quantum-leap"`}, rows...)},
		{"unknown defense", "cache-attack/netscape", append([]string{`"netscape"`}, defenses...)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var b strings.Builder
			err := run(&b, []string{"-cell", c.cell})
			if err == nil {
				t.Fatalf("-cell %q ran:\n%s", c.cell, b.String())
			}
			for _, id := range c.want {
				if !strings.Contains(err.Error(), id) {
					t.Errorf("-cell %q error %q does not name %s", c.cell, err, id)
				}
			}
		})
	}
}
