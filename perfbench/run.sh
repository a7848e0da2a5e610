#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache) stays in
# .bench_build/ under the checkout root.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go -C perfbench build -buildvcs=false -o "$out/perfbench" .
exec "$out/perfbench" "$@"
