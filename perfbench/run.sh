#!/usr/bin/env bash
# Builds the benchmark harness and the programs it drives (sdsnode,
# sdsgen) from this checkout, then runs the harness. Every build
# product, cache and scratch file lands under .bench_build/ at the
# checkout root.
#
#   bash perfbench/run.sh --workload zipf-resident --seed 1 --seconds 30 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build/perfbench
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root" -o "$build/bin/" ./cmd/sdsnode ./cmd/sdsgen >&2
go build -C "$root/perfbench" -o "$build/bin/perfbench" . >&2
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/work" "$@"
