#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload fig8-small --seed 0 --seconds 10 --trace 0
#
# Every file the build and the run write lands under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
