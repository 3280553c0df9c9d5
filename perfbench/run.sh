#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload ask-repeat --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, binary, temp files,
# telemetry) stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
