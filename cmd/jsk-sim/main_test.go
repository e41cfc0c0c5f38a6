package main

import (
	"strings"
	"testing"
)

func TestScenarios(t *testing.T) {
	for _, sc := range []string{"clock", "worker", "fetch", "svg"} {
		for _, def := range []string{"chrome", "jskernel-chrome"} {
			var b strings.Builder
			if err := run(&b, []string{"-scenario", sc, "-defense", def}); err != nil {
				t.Errorf("scenario %s under %s: %v", sc, def, err)
				continue
			}
			out := b.String()
			if !strings.Contains(out, "simulation finished") {
				t.Errorf("scenario %s under %s did not finish:\n%s", sc, def, out)
			}
			if !strings.Contains(out, "page clock") {
				t.Errorf("scenario %s produced no observations", sc)
			}
		}
	}
}

func TestClockScenarioShowsKernelFreeze(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-scenario", "clock", "-defense", "jskernel-chrome"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Under the kernel, 25ms of busy work leaves the page clock at 0.
	if !strings.Contains(out, "after 25ms of busy work") {
		t.Fatalf("missing busy line:\n%s", out)
	}
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "after 25ms of busy work") &&
			!strings.Contains(line, "page clock    0.000 ms") {
			t.Fatalf("kernel clock advanced across busy work: %s", line)
		}
	}
}

func TestUnknownScenario(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-scenario", "teleport"}); err == nil {
		t.Fatal("unknown scenario should error")
	}
}

func TestUnknownDefenseErrors(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-defense", "mosaic"}); err == nil {
		t.Fatal("unknown defense should error")
	}
}

func TestPolicyScenarioWithDecisions(t *testing.T) {
	var b strings.Builder
	if err := run(&b, []string{"-scenario", "policy", "-defense", "jskernel-chrome", "-decisions"}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	_, records, ok := strings.Cut(out, "kernel enforcement records:\n")
	if !ok {
		t.Fatalf("output missing the enforcement section:\n%s", out)
	}
	// Exactly the worker's two enforced verdicts, as trace text lines;
	// allow and schedule verdicts are not enforcement.
	lines := strings.Split(strings.TrimSpace(records), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d enforcement records, want 2:\n%s", len(lines), records)
	}
	for i, want := range [][]string{
		{" policy ", " xhr ", "action=deny", "worker=1"},
		{" policy ", " importScripts ", "action=sanitize", "worker=1"},
	} {
		for _, field := range want {
			if !strings.Contains(lines[i], field) {
				t.Errorf("record %d missing %q: %s", i, field, lines[i])
			}
		}
	}
	b.Reset()
	if err := run(&b, []string{"-scenario", "clock", "-defense", "chrome", "-decisions"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "no kernel in this defense") {
		t.Error("legacy defense should report no enforcement records")
	}
}
