#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments,
# e.g. from the repository root:
#
#   bash bench/run.sh --workload study-attack --seed 3 --seconds 25 --trace 0
#
# The binary and the Go build cache live in .bench_build/ at the root of
# the checkout, so the benchmark reads and writes nothing outside it, and
# the build never reaches for the network. Build output goes to stderr:
# the last line on stdout is the benchmark's JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off
(cd "$root/bench" && go build -o "$out/delorean-bench" .) >&2
cd "$root"
exec "$out/delorean-bench" "$@"
