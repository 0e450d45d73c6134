#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash bench/run.sh --workload tree --seed 1 --seconds 25 --trace 0
#
# The binary and the Go build cache go to .bench_build/ under the current
# directory, so a run reads and writes nothing outside the checkout. Outside
# a full checkout (no go.mod one level above bench/) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd bench && go build -o "$out/mpcn-bench" .)
exec "$out/mpcn-bench" "$@"
