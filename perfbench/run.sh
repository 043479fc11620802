#!/usr/bin/env bash
# Builds the benchmark from the module checkout in the current
# directory and runs it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary, and
# the traced runs' Chrome trace JSON.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" ]]; then
	echo "perfbench: run from the root of the module checkout (no go.mod or internal/ here)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOPATH="$build/gopath"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$build/bin/perfbench" ./perfbench
exec "$build/bin/perfbench" "$@"
