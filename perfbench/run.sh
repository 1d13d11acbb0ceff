#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload bulk-1500 --seed 1 --seconds 10 --trace 0
#
# Run it from the root of a checkout. Everything it builds or writes goes
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout: the
# Go build cache, the binary and the traced run's span files.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C "$root/perfbench" build -o "$out/perfbench" . >&2

exec "$out/perfbench" --out "$out" "$@"
