#!/usr/bin/env bash
# Builds topomapd and the load generator from source, then runs one
# benchmark pass. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold_mix --seed 1 --seconds 22 --trace 0
#
# Every build product, the Go build cache, the span files and the per-run
# reports go under .bench_build/ in the repository root.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0

go build -C perfbench -o "$out/bin/topomapd" topomap/cmd/topomapd
go build -C perfbench -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" -daemon "$out/bin/topomapd" -out "$out" "$@"
