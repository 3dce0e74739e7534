#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
#
#   bash _bench/run.sh --workload train-seq --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (Go build cache, binary, span files) stays in
# .bench_build/ under the checkout root. Without the program's sources next
# to _bench/ the build fails and the script exits non-zero.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
    XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
    GOWORK=off GOFLAGS=
(cd "$root/_bench" && go build -o "$build/buffalo-bench" .)
cd "$root"
exec "$build/buffalo-bench" "$@"
