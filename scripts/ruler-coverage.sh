#!/bin/sh
# ruler-coverage.sh — show which code the end-to-end benchmark (the ruler,
# benchmark/) reaches.  Builds the ruler with coverage of every kspdg
# package, runs each workload for 2 s untraced and traced, then prints the
# statement coverage per package and every function of the program no run
# entered.  Informational: it gates nothing.  Run from the repo root; needs
# jq.  Writes only to a temporary directory, .bench_build/ and
# benchmark/out/.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p .bench_build/tmp "$tmp/cov"
export GOCACHE="$PWD/.bench_build/go-cache" GOTMPDIR="$PWD/.bench_build/tmp" GOTOOLCHAIN=local
export GOCOVERDIR="$tmp/cov"

go build -C benchmark -cover -coverpkg=kspdg/... -o "$tmp/ruler" .
for w in $("$tmp/ruler" -spec | jq -r '.workloads[].name'); do
    for tr in 0 1; do
        echo "ruler-coverage: $w --trace $tr" >&2
        "$tmp/ruler" --workload "$w" --seed 1 --seconds 2 --trace "$tr" >/dev/null
    done
done

echo "== statement coverage per package"
go tool covdata percent -i "$tmp/cov"

# cover -func resolves each profile line's package in this module, so the
# ruler's own package (module kspdg/benchmark) is dropped first.
echo "== functions no run entered"
go tool covdata textfmt -i "$tmp/cov" -o "$tmp/all.txt"
grep -v '^kspdg/benchmark/' "$tmp/all.txt" >"$tmp/program.txt"
go tool cover -func "$tmp/program.txt" | awk '$NF == "0.0%"'
