#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. The Go build cache and the toolchain's own files (telemetry
# counters) live under .bench_build so nothing is written outside the
# checkout; the first build therefore compiles the standard library too
# (about 15 s on two cores).
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
export GOCACHE="$root/.bench_build/gocache" XDG_CONFIG_HOME="$root/.bench_build/config" GOTOOLCHAIN=local
mkdir -p .bench_build
go build -C bench -o "$root/.bench_build/fsjoin-bench" .
exec .bench_build/fsjoin-bench "$@"
