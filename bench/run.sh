#!/usr/bin/env bash
# The command BENCHMARK.json names. It compiles the benchmark and lsmd from
# the checkout's sources into .bench_build at the checkout's root and runs
# the benchmark; the Go tool's caches are kept there too, so nothing is
# read or written outside the checkout. Compiling happens only when a
# source file is newer than the binaries.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"

# Without the program there is nothing to measure: say so before anything
# is started or written.
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lsmd" ]; then
	echo "bench/run.sh: $root holds no go.mod and cmd/lsmd to build" >&2
	exit 2
fi

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
# With a new config directory the go command would start a detached
# telemetry child that outlives it; with the mode off it starts none.
mkdir -p "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"

stale() {
	[ ! -x "$build/bench" ] || [ ! -x "$build/lsmd" ] ||
		[ -n "$(find "$root" -path "$build" -prune -o \( -name '*.go' -o -name go.mod \) -newer "$build/bench" -print -quit)" ]
}
if stale; then
	(cd "$root" && go build -o "$build/lsmd" ./cmd/lsmd) >&2
	(cd "$here" && go build -o "$build/bench" .) >&2
fi

cd "$root"
exec "$build/bench" -lsmd "$build/lsmd" "$@"
