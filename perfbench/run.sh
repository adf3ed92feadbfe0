#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload bulk-lifecycle --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare old.json new.json
#
# The build, its Go caches and anything the toolchain would keep in the
# user's directories stay under .bench_build in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C perfbench build -buildvcs=false -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
