#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload serve-read-10k --seed 0 --seconds 20 --trace 0
#
# Every build artifact, Go build cache and temporary file stays under
# .bench_build/ in the current directory, so a run touches nothing outside
# the checkout. The build fails, and the script exits non-zero without a
# result, when the repository around bench/ is missing.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C bench build -o "$out/immersionoc-bench" .
exec "$out/immersionoc-bench" "$@"
