#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload join-cold --seed 1 --seconds 50 --trace 0
# Every file the build and the run write goes under .bench_build in the
# current directory: the Go build cache, the binary and the run's stores.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOPATH="$build/gopath" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off
go -C "$(dirname "$0")" build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
