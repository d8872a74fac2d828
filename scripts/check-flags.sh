#!/bin/sh
# check-flags.sh — keep the docs/OPERATIONS.md flag reference in lockstep with
# the kspd binary.  Fails when kspd grows a flag the docs don't mention, or
# the docs document a flag kspd no longer has.  Run from the repo root.
set -eu

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# `kspd -h` prints usage to stderr and exits 2; that's fine, we only want the
# flag names.  Flag lines look like "  -listen string".
go run ./cmd/kspd -h 2>"$tmp/help" || true
sed -n 's/^  -\([a-z0-9-]*\).*/\1/p' "$tmp/help" | sort -u >"$tmp/binary"

# The docs render each flag as a table row starting "| `-name` ...".
sed -n 's/^| `-\([a-z0-9-]*\)`.*/\1/p' docs/OPERATIONS.md | sort -u >"$tmp/docs"

if [ ! -s "$tmp/binary" ]; then
    echo "check-flags: could not extract any flags from 'kspd -h'" >&2
    exit 1
fi

fail=0
undocumented=$(comm -23 "$tmp/binary" "$tmp/docs")
if [ -n "$undocumented" ]; then
    echo "flags in 'kspd -h' missing from docs/OPERATIONS.md:" >&2
    echo "$undocumented" | sed 's/^/  -/' >&2
    fail=1
fi
stale=$(comm -13 "$tmp/binary" "$tmp/docs")
if [ -n "$stale" ]; then
    echo "flags documented in docs/OPERATIONS.md that kspd does not have:" >&2
    echo "$stale" | sed 's/^/  -/' >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "check-flags: FAILED" >&2
    exit 1
fi
echo "check-flags: OK ($(wc -l <"$tmp/binary" | tr -d ' ') flags match)"
