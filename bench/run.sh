#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags,
# from the root of the checkout. Everything the build writes (binary,
# Go build cache, temporary files) stays inside the checkout, under
# .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$build/abase-bench" .)
cd "$root"
exec "$build/abase-bench" "$@"
