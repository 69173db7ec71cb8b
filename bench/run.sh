#!/usr/bin/env bash
# Builds the benchmark from source and runs it, keeping every file the build
# writes (Go build cache, binary) inside the checkout under .bench_build/.
# Run from the repository root: bash bench/run.sh --workload warm_dcta ...
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/bench" -o "$build/dcta-perf" .
exec "$build/dcta-perf" "$@"
