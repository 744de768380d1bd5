#!/usr/bin/env bash
# Builds the scaling benchmark and runs it with the given arguments, from
# the repository root:
#
#   bash scalebench/run.sh --workload paper-mesh --seed 1 --seconds 25 --trace 0
#
# The Go build cache, temporary build files, the binary, span files and
# exported graphs all stay under .bench_build/ in the current directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd scalebench && go build -o "$out/scalebench" .)
exec "$out/scalebench" --out-dir "$out" "$@"
