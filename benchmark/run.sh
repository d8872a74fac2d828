#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout and runs
# it with the arguments given.  Go's build cache and temporary files go there
# too, so nothing is written outside the checkout.
# From the root: bash benchmark/run.sh --workload ...
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
go build -C benchmark -o ../.bench_build/kspbenchmark .
exec .bench_build/kspbenchmark "$@"
