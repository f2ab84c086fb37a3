#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# inside the checkout and runs it with the arguments given, e.g.
#
#   bash bench/run.sh --workload qual_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache, module cache and telemetry
# counters, and the binary) stays under .bench_build/ at the root of the
# checkout; results and span dumps go to bench/out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$here" -o "$build/paxq-bench" .
exec "$build/paxq-bench" -out "$here/out" "$@"
