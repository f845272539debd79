#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. Every
# file the toolchain writes (build cache, module cache, binary) stays under
# .bench_build, so a run reads and writes only inside its checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off
go -C bench build -o "$build/bench" .
exec "$build/bench" "$@"
