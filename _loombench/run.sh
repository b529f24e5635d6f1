#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it:
#
#   bash _loombench/run.sh --workload ingest-motif --seed 1 --seconds 40 --trace 0
#
# Run it from the root of the checkout. Everything it writes (Go build
# cache, binary, data directories, span files) goes under .bench_build/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/loombench" .) >&2
exec "$build/loombench" "$@"
