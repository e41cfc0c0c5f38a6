#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload table1 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's own config and
# telemetry files, and span files stay under .bench_build/ in the
# checkout, and no toolchain or module is fetched.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
