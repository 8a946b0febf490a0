#!/usr/bin/env bash
# Builds the load benchmark from source and runs it. Run from the
# repository root; every argument is passed to the benchmark binary:
#
#   bash perfbench/run.sh --workload select-small --seed 1 --seconds 24 --trace 0
#   bash perfbench/run.sh compare old-runs.jsonl new-runs.jsonl
#
# The build cache, temporary files, the binary and the traced runs' span
# files all stay under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

# The build's own output goes to stderr: the last line of stdout is the
# benchmark's result.
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
