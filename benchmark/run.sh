#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments. Run it from the repository root:
#
#   bash benchmark/run.sh --workload scale --seed 42 --seconds 25 --trace 0
#
# The binary, the Go build cache, the compiler's temporary files and the
# Go command's own state go to $CARGO_TARGET_DIR (default .bench_build)
# in the repository, so the build writes nothing outside it and later
# builds are incremental.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$(pwd)/$out" ;; esac
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o "$out/dyrs-benchmark" .
exec "$out/dyrs-benchmark" "$@"
