#!/usr/bin/env bash
# Builds eibench from source and runs it with the given arguments, from the
# root of a checkout. Everything the build writes — the binary, Go's build
# cache and its temporary files — stays under .bench_build/ in the checkout,
# and the toolchain is pinned to the local one so nothing is fetched.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off

go build -o "$build/eibench" ./bench/eibench
exec "$build/eibench" "$@"
