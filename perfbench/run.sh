#!/usr/bin/env bash
# Builds the perfbench binary from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload cold-sim --seed 1 --seconds 20 --trace 0
# Everything the build writes stays inside the checkout: the binary and the
# Go build cache go to $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root=$(pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
