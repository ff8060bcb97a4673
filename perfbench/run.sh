#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's source and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-grid --seed 1 --seconds 20 --trace 0
#
# Build caches, the binary and run files all stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	PPROF_TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go build -o "$build/perfbench" ./perfbench
exec "$build/perfbench" "$@"
