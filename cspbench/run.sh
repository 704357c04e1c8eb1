#!/usr/bin/env bash
# Builds cspserved and the benchmark program (cspbench) from this checkout, then runs
# one benchmark workload:
#
#   bash cspbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it builds or writes
# stays under .bench_build/ there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/tmp" "$build/work"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
go build -o "$build/bin/cspserved" ./cmd/cspserved
(cd "$root/cspbench" && go build -o "$build/bin/cspbench" .)
exec "$build/bin/cspbench" -root "$root" -server "$build/bin/cspserved" -work "$build/work" "$@"
