#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through:
#
#   bash perfbench/run.sh --workload profile-paper --seed 1 --seconds 30 --trace 0
#
# Run from the repository root. The Go build cache and the binary live
# under .bench_build/ so the run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off XDG_CONFIG_HOME="$out/config"
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
