#!/usr/bin/env bash
# One benchmark run under the driver's contract: build the benchmark from
# source, then exec it with the driver's arguments. The binary and the Go
# build cache live in the checkout's .bench_build/, so a run writes
# nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go -C "$here" build -o "$build/qcdocbench" .
exec "$build/qcdocbench" -out "$here/out" "$@"
