#!/usr/bin/env bash
# Builds perfbench from the checkout it is run in and runs it, e.g.
#   bash perfbench/run.sh --workload full-sweep --seed 1 --seconds 25 --trace 0
# Every build and run artifact stays under .bench_build in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
