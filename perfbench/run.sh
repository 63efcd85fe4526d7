#!/usr/bin/env bash
# Builds the serving benchmark from the checkout's sources and runs it from
# the checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload f32-load --seed 1 --seconds 16 --trace 0
#
# The build cache, the binary and the traced run's spans go to .bench_build.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
