#!/usr/bin/env bash
# Builds the live-pipeline benchmark from the checkout it sits in and runs
# it with the given arguments. Run it from the repository root:
#
#   bash livebench/run.sh --workload fanout --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the go command's own config
# and telemetry files go under $CARGO_TARGET_DIR (default .bench_build),
# so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out"
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C livebench build -o "$out/livebench" . >&2
exec "$out/livebench" --spans "$out/spans" "$@"
