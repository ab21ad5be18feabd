#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root:
#   bash perfbench/run.sh --workload engine-access --seed 1 --seconds 10 --trace 0
# Build outputs and Go's caches stay under $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout; no module is fetched.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE=$out/gocache GOTMPDIR=$out/gotmp GOPATH=$out/gopath XDG_CONFIG_HOME=$out/config
export GOPROXY=off GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
