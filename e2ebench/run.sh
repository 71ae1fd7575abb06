#!/usr/bin/env bash
# Builds iqsserve from the tree under test and the benchmark, then runs
# the benchmark with the given arguments. Run it from the repository
# root:
#
#   bash e2ebench/run.sh --workload serial_spread --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binaries, Go build cache, spans) stays in
# .bench_build/ under the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# With telemetry on (its default is "local"), the go command starts a
# detached sidecar process that outlives the build; turn it off first.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$out/iqsserve" ./cmd/iqsserve
(cd "$root/e2ebench" && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -server "$out/iqsserve" "$@"
