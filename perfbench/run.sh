#!/usr/bin/env bash
# Builds the workload benchmark from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload bitmap-direct --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository.  Every build artifact (the Go build
# cache, temporary files, the binary) stays under the build directory:
# $CARGO_TARGET_DIR when set, .bench_build otherwise.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
