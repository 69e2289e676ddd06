#!/usr/bin/env bash
# Builds the benchmark and runs it with the given flags. Run it from the
# repository root:
#
#   bash bench/run.sh --workload solve-fresh --seed 2016 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the go command's
# config and telemetry, the synts binary, child-process logs and spans.
# The module proxy and toolchain downloads are switched off, so a missing
# dependency fails the build.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOMAXPROCS=2

go -C "$root/bench" build -o "$out/synts-bench" .
exec "$out/synts-bench" "$@"
