#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash e2ebench/run.sh --workload schedule-cold --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh --repeat 10 --seconds 20
#
# Run it from the root of a checkout. Everything the build and the runs
# write stays under .bench_build/ there: the Go build cache, the binary,
# each run's scratch directory and the traced runs' Chrome traces.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
