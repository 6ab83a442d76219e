#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash bench/run.sh --workload read_large --seed 1 --seconds 15 --trace 0
#
# bench/ is a module of its own (bench/go.mod) that replaces its one
# requirement, ssrq, with the parent directory. Everything the build writes
# (compiler cache, temporary files, the toolchain's own bookkeeping, the
# binary) stays under .bench_build in the current directory.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
export BENCH_GIT_SHA="${BENCH_GIT_SHA:-$(git rev-parse HEAD 2>/dev/null || echo unknown)}"
(cd "$(dirname "$0")" && go build -o "$build/ssrq-bench" .)
exec "$build/ssrq-bench" "$@"
