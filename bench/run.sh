#!/usr/bin/env bash
# Builds bbsperf from source and runs it. Everything the build and the run
# write stays under .bench_build in the checkout the command is started from:
# the Go caches, the toolchain's scratch and config directories, the binary,
# and (by the program's own default) the workloads' scratch files.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
go build -C bench -o "$build/bbsperf" ./cmd/bbsperf
exec "$build/bbsperf" "$@"
