#!/usr/bin/env bash
# Inlining guard for the per-packet fast paths. Each primitive below runs
# once or more per delivered, decoded or synthesised packet, and a change
# that pushes one past the compiler's inlining budget (cost 80) turns it
# into a call at every site without failing any test. This script asks the compiler
# (go build -gcflags=-m=2) and fails unless it reports "can inline" for
# every name in WANT, and unless Prefix.Mark inlines the window's fast
# path. It prints the Go version first: inlining costs can move between
# compiler releases.
set -euo pipefail
cd "$(dirname "$0")/.."

WANT=(
    '(*Window[go.shape.bool]).reslice' # seqwin: Window.Ensure's fast path
    '(*Prefix).Has'                    # seqwin: the per-delivery probe
    '(*Decoder).Byte'                  # netsim: the wire decoder's reads
    '(*Decoder).Uvarint'
    '(*Decoder).Varint'
    '(*RNG).Float64'                   # sim: one per link per synthesised packet
    '(*RNG).Int63'
    '(*RNG).UniformDuration'           # sim: every protocol timer's draw
)

go version
out="$(go build -gcflags=-m=2 ./internal/seqwin ./internal/netsim ./internal/sim 2>&1)"

status=0
for fn in "${WANT[@]}"; do
    if line="$(grep -F ": can inline $fn with cost " <<<"$out")"; then
        echo "ok    ${line%% as: *}"
    else
        echo "FAIL  $fn does not inline:"
        grep -F "inline $fn" <<<"$out" || echo "      (no report for $fn)"
        status=1
    fi
done

# Prefix.Mark composes the fast path with the outlined grow; the fast
# path must be inlined inside Mark's body, not called.
src=internal/seqwin/seqwin.go
read -r first last < <(awk '/^func \(p \*Prefix\) Mark\(/ { s = NR } s && /^}/ { print s, NR; exit }' "$src")
if awk -F: -v f="$src" -v a="$first" -v b="$last" '
    $1 == f && $2 > a && $2 < b && /inlining call to \(\*Window\[go\.shape\.bool\]\)\.reslice/ { found = 1 }
    END { exit !found }' <<<"$out"; then
    echo "ok    (*Prefix).Mark inlines (*Window[go.shape.bool]).reslice"
else
    echo "FAIL  (*Prefix).Mark (lines $first-$last) does not inline (*Window[go.shape.bool]).reslice"
    status=1
fi
exit "$status"
