#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it:
#
#   bash perfbench/run.sh --workload serve-batch-small --seed 1 --seconds 24 --trace 0
#
# Run from the repository root. Every build artifact (Go build cache,
# binary, temp files) and every run artifact (model files, reports, span
# dumps) lands under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
# XDG_CONFIG_HOME keeps the go command's local telemetry counters inside
# the checkout too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOENV=off

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
