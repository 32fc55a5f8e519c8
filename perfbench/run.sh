#!/usr/bin/env bash
# Builds the statsize benchmark from the enclosing checkout and runs it.
#
# Usage (from the checkout root):
#
#	bash perfbench/run.sh --workload size-accel --seed 1 --seconds 20 --trace 0
#
# Every build artifact, Go cache and Go config file (telemetry included)
# lives under .bench_build/ in the checkout, so the run writes nothing
# outside it. A failed build exits non-zero without printing a result.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod

go -C "$here" build -o "$build/statbench" . >&2
cd "$root"
exec "$build/statbench" "$@"
