#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload fig14-serde --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and every other file the toolchain writes
# stay under .bench_build/ in the checkout. Without the repository's
# sources next to perfbench/ the build fails and the script exits non-zero.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	XDG_CACHE_HOME="$build/cache" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
