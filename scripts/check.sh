#!/bin/sh
# check.sh — the pre-merge gate: build, vet, perfbench, gofmt, jsk-lint,
# race-test, golden traces, the paper-scale output pin (jsk-eval -all
# -paper against eval_paper.txt), fuzz (each native fuzz target for
# 10 s), smoke stages.
# Usage: ./scripts/check.sh   (or: make check)
#
# Fails fast: the first failing stage stops the run, and the banner
# names the stage so the log reads unambiguously even in CI.
set -eu

cd "$(dirname "$0")/.."

stage() {
	echo ""
	echo "==================================================================="
	echo "== stage: $1"
	echo "==================================================================="
}

fail() {
	echo ""
	echo "xx stage FAILED: $1" >&2
	exit 1
}

stage "go build ./..."
go build ./... || fail "go build"

stage "go vet ./..."
go vet ./... || fail "go vet"

# perfbench is a nested module (its own go.mod, replacing jskernel with
# this checkout), so ./... above does not reach it. Build and unit-test
# it here: a change to a shape it reads (serve.Config, Plane.FlushStats,
# expr.Table1Result) or a metric-name drift from BENCHMARK.json
# (TestMetricsMatchBenchmarkFile) must fail the gate, not the next
# benchmark run.
stage "perfbench: go vet + go test"
go -C perfbench vet ./... || fail "perfbench go vet"
go -C perfbench test ./... || fail "perfbench go test"

stage "gofmt -l ."
unformatted="$(gofmt -l .)" || fail "gofmt"
if [ -n "$unformatted" ]; then
	echo "$unformatted"
	fail "gofmt (run gofmt -w on the files above)"
fi

stage "jsk-lint ./internal/... ./cmd/..."
go run ./cmd/jsk-lint ./internal/... ./cmd/... || fail "jsk-lint"

# The race stage gets an explicit timeout: the expr suite runs full
# Table I matrices several times over for the parallel-determinism and
# forensic-agreement guards, which on a small CI box does not fit
# go test's default 10m budget.
stage "go test -race ./..."
go test -race -timeout 45m ./... || fail "go test -race"

# Golden traces run as part of the suite above, but re-run here without
# -race so byte-level determinism is checked in the exact configuration
# a developer uses for -update, then smoke the end-to-end exporter: a
# traced Dromaeo run must produce Chrome trace-event JSON that survives
# trace.Validator (writeTrace validates before it writes).
stage "golden traces + trace export smoke"
go test ./internal/trace -run Golden || fail "golden traces"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
go run ./cmd/jsk-eval -dromaeo -trace "$trace_tmp/dromaeo-trace.json" >/dev/null || fail "trace export smoke"
test -s "$trace_tmp/dromaeo-trace.json" || fail "trace export smoke (empty output)"

# eval_paper.txt is the paper-scale output EXPERIMENTS.md cites. A fresh
# run must reproduce it byte for byte, so a change that moves any
# paper-scale table or figure re-pins the file on purpose. The run takes
# about 6 s at 15 MB maxrss on a 2-vCPU host.
stage "paper-scale output (jsk-eval -all -paper vs eval_paper.txt)"
go run ./cmd/jsk-eval -all -paper >"$trace_tmp/eval_paper.txt" || fail "jsk-eval -all -paper"
diff -u eval_paper.txt "$trace_tmp/eval_paper.txt" \
	|| fail "paper-scale output differs from eval_paper.txt"

# Fuzz: each native fuzz target runs for a short fixed budget on top of
# its checked-in seed corpus (which the unit-test stage above already
# replays): the trace record codec, the /v1/eval request decoder and
# resolver, the replay-token parser, the /metricsz exposition parser,
# the client's /v1/events stream parser and jsk-lint's suppression
# directives, all fed bytes from outside the program. A failing input is
# written under the package's testdata/fuzz directory for replay.
stage "fuzz (FuzzReadRecords, FuzzEvalRequest, FuzzParseToken, FuzzParseExposition, FuzzEventStream, FuzzSuppressions; 10s each)"
go test -run '^$' -fuzz '^FuzzReadRecords$' -fuzztime 10s ./internal/trace || fail "fuzz FuzzReadRecords"
go test -run '^$' -fuzz '^FuzzEvalRequest$' -fuzztime 10s ./internal/serve || fail "fuzz FuzzEvalRequest"
go test -run '^$' -fuzz '^FuzzParseToken$' -fuzztime 10s ./internal/explore || fail "fuzz FuzzParseToken"
# FuzzParseExposition's seeds include whole /metricsz scrapes (up to
# 8 KB). At the default 60 s minimization cap, minimizing the first new
# input derived from one ate the whole budget: 120 to 335 executions in
# 10 s on a 2-vCPU host, against about 124,000 with a 1 s cap.
go test -run '^$' -fuzz '^FuzzParseExposition$' -fuzztime 10s -fuzzminimizetime 1s ./internal/telemetry || fail "fuzz FuzzParseExposition"
# FuzzEventStream has a seed over the parser's 1 MiB line limit; with the
# default minimization cap the fuzzer stalled at about 4,700 executions
# in 10 s, against about 38,000 with a 1 s cap.
go test -run '^$' -fuzz '^FuzzEventStream$' -fuzztime 10s -fuzzminimizetime 1s ./internal/serve || fail "fuzz FuzzEventStream"
go test -run '^$' -fuzz '^FuzzSuppressions$' -fuzztime 10s -fuzzminimizetime 1s ./internal/analysis || fail "fuzz FuzzSuppressions"

# Observability smoke: the streaming consumers must attach, profile and
# report without perturbing the run — flamegraph, telemetry report and
# metrics registry all non-empty from one traced Dromaeo pass.
stage "obs smoke (profile + obs-report + metrics)"
go run ./cmd/jsk-eval -dromaeo \
	-profile "$trace_tmp/dromaeo.folded" \
	-obs-report "$trace_tmp/obs" \
	-metrics "$trace_tmp/metrics.json" >/dev/null || fail "obs smoke"
test -s "$trace_tmp/dromaeo.folded" || fail "obs smoke (empty flamegraph)"
test -s "$trace_tmp/obs/report.json" || fail "obs smoke (empty report.json)"
test -s "$trace_tmp/obs/summary.txt" || fail "obs smoke (empty summary.txt)"
test -s "$trace_tmp/metrics.json" || fail "obs smoke (empty metrics.json)"

# Race smoke: re-judge Table I's CVE half with the happens-before race
# detector — jsk-eval -race exits nonzero unless the race verdict (≥1
# race on the CVE's channel target class) agrees with the experiment's
# own exploited/defended verdict on every cell. Then round-trip one cell
# through jsk-race's export → offline replay and require the identical
# findings: the streaming detector and the replayer must be the same
# analysis.
stage "race matrix (Table I agreement) + jsk-race export/replay round-trip"
go run ./cmd/jsk-eval -race -reps 3 >/dev/null || fail "jsk-eval -race matrix"
go run ./cmd/jsk-race -cve CVE-2018-5092 -defense chrome \
	-export "$trace_tmp/cve5092.jsonl" >"$trace_tmp/race-live.txt" || fail "jsk-race export"
go run ./cmd/jsk-race -replay "$trace_tmp/cve5092.jsonl" >"$trace_tmp/race-replay.txt" || fail "jsk-race replay"
sed -n '/^  /p' "$trace_tmp/race-live.txt" >"$trace_tmp/race-live-findings.txt"
sed -n '/^  /p' "$trace_tmp/race-replay.txt" >"$trace_tmp/race-replay-findings.txt"
diff -u "$trace_tmp/race-live-findings.txt" "$trace_tmp/race-replay-findings.txt" \
	|| fail "jsk-race replay diverged from the live run"
test -s "$trace_tmp/race-live-findings.txt" || fail "jsk-race (no findings on an exploited cell)"

# Explore smoke: the schedule-space search must rediscover the CVE
# races with the attack state machines unarmed (small PCT budget on two
# cells), its report must be byte-identical at any -parallel width, and
# a replay token must reproduce its findings identically on every
# invocation. At seed 42 the default-order schedule already races on
# both cells, so the DPOR fallback does not run here; the check of
# search beyond the default order is internal/explore/hidden_test.go
# (TestPCTDiscoversHiddenRace, TestDPORDiscoversHiddenRace). The
# non-JSON path exits nonzero if any discovery's own replay check fails,
# so the exit code doubles as the token-determinism gate; -o keeps the
# JSON report as an artifact.
stage "jsk-explore smoke (unarmed rediscovery + replay determinism)"
go run ./cmd/jsk-explore -matrix -cves CVE-2018-5092,CVE-2014-3194 \
	-budget 2 -dpor-budget 4 -parallel 1 \
	-o "$trace_tmp/explore-p1.json" >/dev/null || fail "jsk-explore matrix (-parallel 1)"
go run ./cmd/jsk-explore -matrix -cves CVE-2018-5092,CVE-2014-3194 \
	-budget 2 -dpor-budget 4 -parallel 4 \
	-o "$trace_tmp/explore-p4.json" >/dev/null || fail "jsk-explore matrix (-parallel 4)"
diff -u "$trace_tmp/explore-p1.json" "$trace_tmp/explore-p4.json" \
	|| fail "jsk-explore report differs across -parallel widths"
go run ./cmd/jsk-explore -replay v1:CVE-2018-5092:chrome:42:- \
	>"$trace_tmp/explore-replay-1.txt" || fail "jsk-explore replay"
go run ./cmd/jsk-explore -replay v1:CVE-2018-5092:chrome:42:- \
	>"$trace_tmp/explore-replay-2.txt" || fail "jsk-explore replay (second run)"
diff -u "$trace_tmp/explore-replay-1.txt" "$trace_tmp/explore-replay-2.txt" \
	|| fail "jsk-explore replay token is nondeterministic"
grep -q '^  race ' "$trace_tmp/explore-replay-1.txt" \
	|| fail "jsk-explore replay reproduced no findings"

echo ""
echo "== OK: all stages passed"
