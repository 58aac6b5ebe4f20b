#!/usr/bin/env bash
# Builds the benchmark from source, with every build artefact inside
# .bench_build/ of the current directory, then runs it with the given
# arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload enrich-atpg --seed 1 --seconds 15 --trace 0
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go build -o "$out/benchmark" ./benchmark
exec "$out/benchmark" "$@"
