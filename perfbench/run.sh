#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload pair-sweep --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build/ in the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
go -C perfbench build -o "$out/bin/perfbench" .
exec "$out/bin/perfbench" "$@"
