#!/usr/bin/env bash
# Builds bench/avgperf and runs it with the given arguments. Run it from the
# repository root: bash bench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/bin"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/bench" build -o "$build/bin/avgperf" ./avgperf
exec "$build/bin/avgperf" "$@"
