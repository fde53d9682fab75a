#!/usr/bin/env bash
# Builds the fleet benchmark from this checkout's sources and runs it with
# the given arguments. Run it from the checkout's root:
#
#   bash fleetbench/run.sh --workload cluster_lddm --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build/ (the Go
# build cache included), so the first run compiles the standard library
# and later runs reuse it.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
# The toolchain keeps its telemetry counters under the user config
# directory; point it inside the checkout.
export XDG_CONFIG_HOME="$out/config"

go -C fleetbench build -o "$out/fleetbench" . >&2
exec "$out/fleetbench" "$@"
