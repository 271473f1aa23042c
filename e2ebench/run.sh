#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs one measurement.
#
#   bash e2ebench/run.sh --workload kg-detect --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory: the Go build cache, the
# binary, the run's generated input files (deleted when the run ends), the
# structural-count records used to flag drift between runs of one seed, and
# the spans of traced runs (state/spans/<workload>-seed<N>.tsv).
# The inputs are generated by a separate process before the measuring one
# starts, so the measured process only reads files.
set -euo pipefail

root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOSUMDB=off GOWORK=off

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)

work="$(mktemp -d "$build/tmp/run.XXXXXX")"
trap 'rm -rf "$work"' EXIT

"$build/e2ebench" inputs --dir "$work" "$@"
"$build/e2ebench" measure --dir "$work" --state "$build/state" "$@"
