#!/bin/sh
# BENCHMARK.json's command: build wposbench from source into the checkout
# and run it.  The Go build cache lives in the checkout too, so nothing is
# read or written outside it; only the first run pays for the build.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/wposbench" ./benchmark
exec "$out/wposbench" "$@"
