#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's source and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash fleetbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, results, span files and temporary
# files all stay under .bench_build/fleetbench in the checkout.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/fleetbench"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/fleetbench" && go build -o "$out/fleetbench" .)
cd "$root"
exec "$out/fleetbench" --out "$out" --repo "$root" "$@"
