package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"jskernel/internal/hb"
)

// runJSON runs jsk-race with args and decodes its JSON output into v.
func runJSON(t *testing.T, v any, args ...string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(&out, args); err != nil {
		t.Fatalf("jsk-race %s: %v", strings.Join(args, " "), err)
	}
	if err := json.Unmarshal(out.Bytes(), v); err != nil {
		t.Fatalf("jsk-race %s: decoding output: %v\n%s", strings.Join(args, " "), err, out.String())
	}
}

// findingsJSON renders findings compactly for byte comparison.
func findingsJSON(t *testing.T, fs []hb.Finding) string {
	t.Helper()
	b, err := json.Marshal(fs)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCellMatchesRaceMatrixGolden: a single-cell run reproduces the race
// matrix's findings for the same cell — the channel-class findings equal
// the chrome cell of the checked-in CVE-2018-5092 race golden.
func TestCellMatchesRaceMatrixGolden(t *testing.T) {
	var cells []cellResult
	runJSON(t, &cells, "-cve", "CVE-2018-5092", "-defense", "chrome", "-json")
	if len(cells) != 1 {
		t.Fatalf("%d cells, want 1", len(cells))
	}
	c := cells[0]
	var channel []hb.Finding
	for _, f := range c.Findings {
		if f.Class == c.Channel {
			channel = append(channel, f)
		}
	}

	data, err := os.ReadFile(filepath.Join("..", "..", "internal", "expr", "testdata", "races_cve-2018-5092.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []struct {
		Defense        string       `json:"defense"`
		ActualDefended bool         `json:"actual_defended"`
		Channel        string       `json:"channel"`
		Findings       []hb.Finding `json:"findings"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatalf("decoding golden: %v", err)
	}
	for _, g := range golden {
		if g.Defense != "chrome" {
			continue
		}
		if c.Channel != g.Channel || c.Defended != g.ActualDefended {
			t.Fatalf("cell channel=%q defended=%v, golden channel=%q defended=%v",
				c.Channel, c.Defended, g.Channel, g.ActualDefended)
		}
		if len(channel) == 0 {
			t.Fatal("exploited cell shows no channel-class race")
		}
		if got, want := findingsJSON(t, channel), findingsJSON(t, g.Findings); got != want {
			t.Fatalf("channel-class findings differ from the race matrix golden:\n got: %s\nwant: %s", got, want)
		}
		return
	}
	t.Fatal("golden has no chrome cell")
}

// TestExportReplayRoundTrip: replaying an exported record stream offline
// yields exactly the live run's findings.
func TestExportReplayRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.jsonl")
	var out bytes.Buffer
	if err := run(&out, []string{"-cve", "CVE-2018-5092", "-defense", "chrome", "-export", path}); err != nil {
		t.Fatalf("export: %v", err)
	}
	if !strings.Contains(out.String(), "exported record stream -> "+path) {
		t.Fatalf("export did not report its output:\n%s", out.String())
	}

	var live []cellResult
	runJSON(t, &live, "-cve", "CVE-2018-5092", "-defense", "chrome", "-json")
	var replayed []hb.Finding
	runJSON(t, &replayed, "-replay", path, "-json")
	if len(live) != 1 || len(live[0].Findings) == 0 {
		t.Fatalf("live run: %+v", live)
	}
	if got, want := findingsJSON(t, replayed), findingsJSON(t, live[0].Findings); got != want {
		t.Fatalf("replayed findings differ from the live run:\n got: %s\nwant: %s", got, want)
	}
}

// TestUsageErrors: without a cell or a stream there is nothing to do,
// and an export needs exactly one cell.
func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		nil,
		{"-cve", "CVE-0000-0000"},
		{"-cve", "CVE-2018-5092", "-defense", "nope"},
		{"-cve", "CVE-2018-5092", "-export", filepath.Join(t.TempDir(), "x.jsonl")},
	} {
		var out bytes.Buffer
		if err := run(&out, args); err == nil {
			t.Errorf("jsk-race %s: want an error", strings.Join(args, " "))
		}
	}
}
