#!/usr/bin/env bash
# run.sh builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload gac-sweep --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binary, temp data dirs, result records) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (no go.mod or internal/ here)" >&2
	exit 2
fi
mkdir -p "$build/gocache" "$build/gotmp" "$build/home" "$build/results"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local
export GOWORK=off
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export TMPDIR="$build/gotmp"

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
