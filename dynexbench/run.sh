#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload of it.
# Run from the root of a checkout:
#
#   bash dynexbench/run.sh --workload column-sweep --seed 1 --seconds 15 --trace 0
#
# Build cache, binary and scratch files stay under ./.bench_build.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOPROXY=off CGO_ENABLED=0
(cd "$here" && go build -o "$out/dynexbench" .) >&2
exec "$out/dynexbench" --root "$root" "$@"
