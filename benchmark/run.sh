#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ and runs it with the given
# arguments. Run it from the repository root; every file the build and the
# run write stays under .bench_build/. See benchmark/README.md.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/go-mod" \
	GOPATH="$out/go-path" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd benchmark && go build -o "$out/easeio-benchmark" .)
exec "$out/easeio-benchmark" "$@"
