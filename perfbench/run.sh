#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload paper-cold --seed 0 --seconds 20 --trace 0
#
# Run from the root of a checkout. The build, the Go caches and everything
# the runs leave behind stay under .bench_build/ in the checkout.
set -euo pipefail

build=$(pwd)/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
  XDG_CONFIG_HOME=$build/config XDG_CACHE_HOME=$build/cache \
  GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

# cmd/reproduce builds with its committed PGO profile; build the benchmark
# the same way so it measures the code users run.
pgo=off
if [ -f cmd/reproduce/default.pgo ]; then
  pgo=$(pwd)/cmd/reproduce/default.pgo
fi
(cd perfbench && go build -buildvcs=false -pgo="$pgo" -o "$build/bin/perfbench" .) >&2

exec "$build/bin/perfbench" "$@"
