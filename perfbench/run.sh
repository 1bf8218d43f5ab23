#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g. from the repository root:
#
#   env RBC_TILE_BUDGET=16384 bash perfbench/run.sh --workload batch-robot --seed 1 --seconds 15 --trace 0
#
# The Go build cache and configuration, the binary, data files and span
# dumps all stay in .bench_build at the repository root.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" --workdir "$out" "$@"
