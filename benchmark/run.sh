#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload graph_id --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary)
# stays under .bench_build/ at the root of the checkout; the run itself
# writes only under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")"
build="$(cd .. && pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/mogul-benchmark" .
exec "$build/mogul-benchmark" "$@"
