#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it from the
# checkout root, passing every argument through:
#
#   bash perfbench/run.sh --workload rent-flat --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#
# Build outputs, the Go build cache and the job stores stay under
# .bench_build/ in the checkout. Nothing is downloaded: the module's
# only dependency is the repository itself, one directory up.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
