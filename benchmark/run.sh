#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash benchmark/run.sh --workload mem_equi --seed 1 --seconds 25 --trace 0
#
# benchmark/ is a package of the oblivjoin module in the parent directory, so
# the build needs that module's go.mod; without it the script exits non-zero
# before anything runs. Everything the build and the run write stays under
# .bench_build/ at the root of the checkout: the binary, Go's build cache and
# temporary files, and the disk workload's data directories.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if ! grep -qx 'module oblivjoin' "$root/go.mod" 2>/dev/null; then
	echo "benchmark: $root is not the root of the oblivjoin module" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/tmp"
cd "$root"
GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= \
	go build -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
