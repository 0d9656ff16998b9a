#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it; every argument is
# passed through. Nothing is read or written outside the checkout: the go
# build cache lives under .bench_build/ too.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/ssbyz-benchmark" .
cd "$root"
exec "$build/ssbyz-benchmark" "$@"
