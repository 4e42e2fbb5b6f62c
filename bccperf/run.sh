#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it.
# Run from the repository root:
#   bash bccperf/run.sh --workload serve-hot --seed 1 --seconds 20 --trace 0
#   bash bccperf/run.sh compare A.jsonl B.jsonl
# Build output, the Go build cache and the build's temporary files stay
# in .bench_build/ under the current directory; run records go to
# .bench_runs/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$(dirname "$0")"
	env GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
		XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off \
		go build -o "$build/bccperf" .
) >&2
exec "$build/bccperf" "$@"
