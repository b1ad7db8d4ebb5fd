#!/usr/bin/env bash
# Driver entry point (BENCHMARK.json "command"): build the benchmark from
# source into the checkout's .bench_build and run it from the repository
# root. Nothing is read or written outside the checkout: the Go build cache
# lives in .bench_build too, so the first run compiles the standard library.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/bench" && go build -o "$build/wildbench" .)
cd "$root"
exec "$build/wildbench" "$@"
