#!/usr/bin/env bash
# Builds the benchmark binary from source and replaces this shell with it.
# One foreground process, no `go run`: nothing is left running once the
# binary returns. Everything the build and the run write (Go build cache,
# binary, WAL files, trace output) lands in .bench_build/ at the root of the
# checkout, which .gitignore names.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
(cd benchmark && go build -o "$build/sya-benchmark" .)
exec "$build/sya-benchmark" "$@"
