#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the root of the repository:
#
#   bash perfbench/run.sh --workload rt-stream --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the checkout ($CARGO_TARGET_DIR when set).
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
mkdir -p "$GOTMPDIR"
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
