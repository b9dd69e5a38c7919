#!/usr/bin/env bash
# Builds the scheduling-service benchmark from source and runs it.
#
#   bash bench/run.sh --workload cold_solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build writes (compiler
# cache, module state, temporary files, the binary) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOWORK=off
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/bench" build -o "$out/dtbench" .
exec "$out/dtbench" "$@"
