#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it in place of
# this shell (exec), so the measured run is one OS process with no child.
# Everything the build writes stays inside the checkout, under .bench_build.
# Usage, from the checkout root:
#   bash perfbench/run.sh --workload stream-loopback --seed 1 --seconds 10 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# The build runs in the background so a SIGINT or SIGTERM that arrives
# during it stops it and waits for it instead of leaving it orphaned.
(cd perfbench && exec go build -o "$out/perfbench" .) &
build=$!
trap 'kill "$build" 2>/dev/null; wait "$build"; exit 130' INT TERM
wait "$build"
trap - INT TERM
exec "$out/perfbench" "$@"
