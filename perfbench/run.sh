#!/usr/bin/env bash
# Builds urllangid-serve and the benchmark from this checkout, then runs
# the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload classify_open --seed 1 --seconds 24 --trace 0
#
# Build outputs, the Go build cache and per-run scratch files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/bin/urllangid-serve" ./cmd/urllangid-serve
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -server "$out/bin/urllangid-serve" -work "$out/work" "$@"
