#!/bin/bash
# Entry point named by BENCHMARK.json: `go run ./benchmark "$@"` from the root
# of the checkout, split into build and run so that everything the go tool
# writes (build cache, temporary files, the executable) stays inside the
# checkout under .bench_build/, and so that what a fresh build left dirty is
# flushed before the run: the first build writes ~120 MB, and its writeback
# made the fsyncs of svc-durable half again as slow (590 vs 400 ms median).
set -eu
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/go-cache" "$build/go-tmp" "$build/go-path"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/go-tmp" GOPATH="$build/go-path"
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/benchmark" ./benchmark
sync -f "$build" 2>/dev/null || true
exec "$build/benchmark" "$@"
