#!/bin/sh
# check-metrics.sh — keep the docs/OPERATIONS.md metrics catalogue in
# lockstep with what a running kspd actually exposes on /metrics.  Boots a
# master on NY-tiny, scrapes the exposition, and compares the metric
# families against the catalogue's backticked names — both directions.
# Run from the repo root.
set -eu

tmp=$(mktemp -d)
port=${CHECK_METRICS_PORT:-8329}
trap 'rm -rf "$tmp"; [ -n "${pid:-}" ] && kill "$pid" 2>/dev/null || true' EXIT

go build -o "$tmp/kspd" ./cmd/kspd
"$tmp/kspd" -mode master -dataset NY -scale tiny -http "127.0.0.1:$port" \
    >"$tmp/log" 2>&1 &
pid=$!

ok=0
for _ in $(seq 1 50); do
    if curl -sf "127.0.0.1:$port/metrics" >"$tmp/scrape" 2>/dev/null; then
        ok=1
        break
    fi
    sleep 0.2
done
kill "$pid" 2>/dev/null && wait "$pid" 2>/dev/null || true
pid=
if [ "$ok" -ne 1 ]; then
    echo "check-metrics: kspd never served /metrics; log:" >&2
    cat "$tmp/log" >&2
    exit 1
fi

# Families the binary exposes: one "# TYPE <name> <kind>" line each.
sed -n 's/^# TYPE \([a-z_][a-z0-9_]*\) .*/\1/p' "$tmp/scrape" | sort -u >"$tmp/binary"
if [ ! -s "$tmp/binary" ]; then
    echo "check-metrics: scrape contained no TYPE lines" >&2
    exit 1
fi

# Families the catalogue documents: backticked gateway_*/kspd_* tokens in
# table rows, label sets stripped.  A trailing * documents a prefix family
# group (e.g. gateway_inflight_*).
grep '^|' docs/OPERATIONS.md \
    | grep -o '`[a-z_][a-z0-9_{},*]*`' \
    | tr -d '`' \
    | sed 's/{[^}]*}//' \
    | grep -E '^(gateway|kspd)_' \
    | sort -u >"$tmp/docs"

# Families only present under specific deployments; absent from the smoke
# boot (single process, no workers) but still belong in the catalogue.
cat >"$tmp/conditional" <<'EOF'
kspd_workers
EOF

fail=0

# 1. Every exposed family must be documented (exact or prefix-glob match).
while read -r fam; do
    grep -qx "$fam" "$tmp/docs" && continue
    matched=0
    while read -r doc; do
        case "$doc" in
        *\*) case "$fam" in "${doc%\*}"*) matched=1 ;; esac ;;
        esac
    done <"$tmp/docs"
    if [ "$matched" -ne 1 ]; then
        echo "family $fam exposed on /metrics but missing from the docs/OPERATIONS.md catalogue" >&2
        fail=1
    fi
done <"$tmp/binary"

# 2. Every documented family must exist (conditional ones exempt; prefix
#    globs must match at least one exposed family).
while read -r doc; do
    case "$doc" in
    *\*)
        if ! grep -q "^${doc%\*}" "$tmp/binary"; then
            echo "catalogue group $doc matches nothing on /metrics" >&2
            fail=1
        fi
        ;;
    *)
        grep -qx "$doc" "$tmp/binary" && continue
        grep -qx "$doc" "$tmp/conditional" && continue
        echo "family $doc documented in the catalogue but not exposed on /metrics" >&2
        fail=1
        ;;
    esac
done <"$tmp/docs"

if [ "$fail" -ne 0 ]; then
    echo "check-metrics: FAILED" >&2
    exit 1
fi
echo "check-metrics: OK ($(wc -l <"$tmp/binary" | tr -d ' ') families match)"
