#!/usr/bin/env bash
# Builds streambench from source and runs it with the given flags. Run it
# from the root of the checkout: the build, Go's caches and every file the
# benchmark writes stay under .bench_build/ there, and nothing is
# downloaded.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd "$root/cmd/streambench" && go build -o "$build/bin/streambench" .)
exec "$build/bin/streambench" "$@"
