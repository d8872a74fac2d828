#!/bin/sh
# check-counts.sh — gate the work the end-to-end benchmark does, not how fast
# it does it.  Runs one traced local-closed workload of the ruler (see
# benchmark/README.md) and compares the counts of its final JSON line with
# scripts/ruler-counts.json: per-query counts within 1 %, structural counts
# exactly.  For a fixed schedule these are the same on any machine, so a
# difference means the algorithm or the index changed — refresh the file on
# purpose (docs/OPERATIONS.md, "Benchmark and the count gate") or fix the
# regression.  Run from the repo root; needs jq.
set -eu

want=scripts/ruler-counts.json
if ! command -v jq >/dev/null; then
    echo "check-counts: jq is required" >&2
    exit 1
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

bash benchmark/run.sh --workload local-closed --seed 1 --seconds 15 --trace 1 >"$tmp/out"
tail -n 1 "$tmp/out" >"$tmp/run.json"

jq -r --slurpfile want "$want" '
    . as $run | $want[0] as $w
    | def row(rule; ok): "\(if ok then "ok  " else "FAIL" end)  \(.key)  got \($run.metrics[.key].value)  want \(.value)  (\(rule))";
      (if $run.correct and $run.failed == 0 then empty
       else "FAIL  run: correct=\($run.correct) failed=\($run.failed) of \($run.attempted)" end),
      ($w.within_1_percent | to_entries[]
       | ($run.metrics[.key].value) as $got
       | row("within 1 %"; $got != null and (($got - .value) | fabs) <= 0.01 * .value)),
      ($w.exact | to_entries[]
       | row("exact"; $run.metrics[.key].value == .value)),
      ($w.reported[] | "info  \(.)  got \($run.metrics[.].value)  (timing-coupled, not gated)")
' "$tmp/run.json" >"$tmp/report"
cat "$tmp/report"

if grep -q '^FAIL' "$tmp/report"; then
    echo "check-counts: FAILED — the work per query or the index changed; see $want" >&2
    exit 1
fi
echo "check-counts: OK"
