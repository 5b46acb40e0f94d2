#!/usr/bin/env bash
# Builds tcqd and the benchmark from this checkout, then runs one
# benchmark run. Everything it writes (build cache, binaries, spans)
# goes under .bench_build/ in the checkout.
#
#   bash wirebench/run.sh --workload shared_filter --seed 1 --seconds 16 --trace 0
#   bash wirebench/run.sh --workload window_join --seconds 16 --noise 10
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" GOENV=off GOTOOLCHAIN=local GOWORK=off
cd "$root"
go build -o "$out/tcqd" ./cmd/tcqd
(cd wirebench && go build -o "$out/wirebench" .)
exec "$out/wirebench" -tcqd "$out/tcqd" -workdir "$out" "$@"
