#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root; all arguments pass through, e.g.
#
#   bash e2ebench/run.sh --workload whatif-mix --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and Go's own config/cache writes all
# stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config"
export XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOENV=off

# Fails (non-zero, no result printed) when the repository's sources are
# not present next to the benchmark.
(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
