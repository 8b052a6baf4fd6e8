#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root,
# passing every argument through:
#
#   bash bench/run.sh -workload all -seed 1
#   bash bench/run.sh --workload quote-hot --seed 2 --seconds 20 --trace 1
#
# The binary, the Go build cache and the toolchain's scratch files all
# live under .bench_build/ in the checkout, so a run reads and writes
# nothing outside it. The first build compiles the standard library
# into that cache; later builds reuse it.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOTOOLCHAIN=local GOFLAGS=

go -C bench build -o "$out/bench" .
exec "$out/bench" "$@"
