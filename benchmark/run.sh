#!/bin/bash
# The command BENCHMARK.json names: builds the benchmark from the checkout's
# sources and runs it with the arguments given. It is run from the root of a
# checkout. Everything the Go toolchain and the benchmark write — build
# cache, module cache, the compiler's work directory, the toolchain's
# per-user configuration and counters, the binary, the fallback socket —
# goes under .bench_build/ in that checkout. So the command works with an
# empty environment (no HOME, so no default GOCACHE), with /tmp and the home
# directory read-only, and leaves nothing outside the checkout.
set -eu

if [ ! -f go.mod ] || [ ! -f benchmark/main.go ]; then
	echo "benchmark/run.sh: run from the root of a checkout of the repository (no go.mod here)" >&2
	exit 2
fi
if ! command -v go >/dev/null 2>&1; then
	PATH="$PATH:/usr/local/go/bin"
fi

build="$PWD/.bench_build/go"
mkdir -p "$build/tmp" "$build/home"
export GOCACHE="$build/cache" GOPATH="$build/path" GOMODCACHE="$build/path/pkg/mod"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOENV=off GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

# A no-op once the cache is warm; the first build of a checkout takes about
# half a minute.
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
