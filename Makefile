GO ?= go

.PHONY: all build test race vet lint check chaos races explore bench-parallel bench-obs bench-serve clean

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the jsk-lint determinism & kernel-invariant analyzers
# (internal/analysis) over the whole repo; nonzero on any unsuppressed
# finding.
lint:
	$(GO) run ./cmd/jsk-lint ./internal/... ./cmd/...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# check is the pre-merge gate: compile, vet, jsk-lint, and the full
# test suite under the race detector.
check:
	./scripts/check.sh

# chaos re-runs the Table I security matrix under every standard fault
# plan and fails if any verdict flips.
chaos:
	$(GO) run ./cmd/jsk-eval -chaos

# races re-judges Table I's CVE half with the happens-before race
# detector (internal/hb); nonzero if any cell's race verdict disagrees
# with the experiment's own exploited/defended verdict.
races:
	$(GO) run ./cmd/jsk-eval -race -reps 3

# explore is the bounded schedule-search smoke: PCT + DPOR over two CVE
# cells with the attack state machines unarmed; nonzero unless every
# discovery's replay token reproduces its finding byte-identically.
explore:
	$(GO) run ./cmd/jsk-explore -matrix -cves CVE-2018-5092,CVE-2014-3194 -budget 2 -dpor-budget 4

# bench-parallel times Table I serially vs. on the worker pool, checks
# byte-identity, and writes BENCH_parallel.json (includes the host's
# CPU count — expect speedup ~1.0 on single-CPU machines).
bench-parallel:
	$(GO) run ./cmd/jsk-bench -out BENCH_parallel.json

# bench-obs times Dromaeo with streaming telemetry off vs fully on
# (trace session + obs events + profiler + detectors), checks the
# results are byte-identical either way, and writes BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/jsk-bench -obs -out BENCH_obs.json

# bench-serve load-tests the jsk-serve daemon: sustained throughput and
# p50/p95/p99 latency, then an overload run on a pool-1 queue-1 server
# that must shed load (429s) while every served response stays
# byte-identical to the unloaded reference. Writes BENCH_serve.json.
bench-serve:
	$(GO) run ./cmd/jsk-bench -serve -out BENCH_serve.json

clean:
	$(GO) clean ./...
