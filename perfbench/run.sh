#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-batch --seed 1 --seconds 30 --trace 0
#
# Every build product (the Go build cache included) stays under
# .bench_build/ in the current directory; so does the Go command's
# configuration and telemetry directory (XDG_CONFIG_HOME).
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$build"
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
