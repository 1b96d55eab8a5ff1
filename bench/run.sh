#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it.  Everything the
# build and the run write stays under .bench_build/ and bench/out/ in the
# checkout; run from the checkout's root.
set -euo pipefail
if [ ! -f go.mod ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the root of a milan checkout" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp" bench/out
# The toolchain's caches stay in the checkout too, and no configuration from
# outside it is read.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export GOENV=off GOFLAGS=-modcacherw GOTOOLCHAIN=local
go build -C bench -o "$build/servedbench" .
exec "$build/servedbench" "$@"
