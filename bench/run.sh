#!/bin/sh
# Builds the bwsched daemon and the benchmark program (bwbench) from this
# checkout, then runs bwbench with the given arguments. Run from the repository
# root:
#
#   sh bench/run.sh --workload deploy --seed 1 --seconds 30 --trace 0
#
# Every build product and Go cache lives under .bench_build/ in the
# checkout, so the run reads and writes nothing outside it.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/bench" && go build -o "$out/bwbench" . && go build -o "$out/bwsched" bwc/cmd/bwsched)
exec "$out/bwbench" --daemon "$out/bwsched" --work "$out/run" "$@"
