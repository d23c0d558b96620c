#!/usr/bin/env bash
# Builds the benchmark harness and the mtsimd daemon from the checkout this
# script sits in, then runs the harness with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload daemon --seed 7 --seconds 10 --trace 0
#
# Run it from the checkout root. Build outputs, the Go build cache, scratch
# files and traces all go under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"

# XDG_CONFIG_HOME keeps the go command's config and telemetry files here too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

# Build output goes to stderr; standard output carries only the report.
(cd "$bench" && go build -o "$out/bin/perfbench" .) >&2
(cd "$bench/.." && go build -o "$out/bin/mtsimd" ./cmd/mtsimd) >&2

exec "$out/bin/perfbench" -workdir "$out" -mtsimd "$out/bin/mtsimd" "$@"
