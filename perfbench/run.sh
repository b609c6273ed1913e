#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload:
#
#   bash perfbench/run.sh --workload elkin-random --seed 1 --seconds 25 --trace 0
#
# Every file the build and the run write stays under .bench_build at the
# root of the checkout (compiler cache, Go config, binary, trace records).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build/records" "$@"
