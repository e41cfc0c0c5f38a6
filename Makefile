GO ?= go

.PHONY: all build test race vet lint check chaos races explore clean

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

# check is the pre-merge gate: compile, vet, the perfbench module's vet
# and unit tests, jsk-lint, the full test suite under the race
# detector, the golden traces, the paper-scale output pin (jsk-eval
# -all -paper diffed against eval_paper.txt), the native fuzz targets
# (FuzzReadRecords, FuzzEvalRequest, FuzzParseToken,
# FuzzParseExposition, FuzzEventStream, FuzzSuppressions; 10 s each),
# and the smoke stages.
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

# explore is the bounded schedule-search smoke: two CVE cells with the
# attack state machines unarmed; nonzero unless every discovery's replay
# token reproduces its finding byte-identically. At seed 42 the
# default-order schedule races on both cells, so DPOR does not run;
# internal/explore/hidden_test.go (TestPCTDiscoversHiddenRace,
# TestDPORDiscoversHiddenRace) checks search beyond the default order.
explore:
	$(GO) run ./cmd/jsk-explore -matrix -cves CVE-2018-5092,CVE-2014-3194 -budget 2 -dpor-budget 4

clean:
	$(GO) clean ./...
