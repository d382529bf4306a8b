#!/usr/bin/env bash
# Regenerate the golden-stats snapshots under tests/golden/.
#
# Usage: tools/regen_golden.sh [--check] [build-dir]
#
# Runs the golden_test binary in regeneration mode, which rewrites one
# JSON snapshot per (workload set, scheduler) cell, plus the metrics
# companions (metrics_*.jsonl interval series and one .trace.json).
# Review the diff: every changed field is a behavioural change of the
# simulator or of its metric streams.
#
# --check: regenerate into a temporary directory and diff it against
#          the committed tests/golden/ instead of rewriting anything.
#          Exits non-zero on any drift — CI runs this so a simulator
#          change can never land without its snapshot diff.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"

check=0
if [[ "${1:-}" == "--check" ]]; then
    check=1
    shift
fi

build="${1:-$repo/build}"
bin="$build/tests/golden_test"

if [[ ! -x "$bin" ]]; then
    echo "error: $bin not built (cmake --build $build --target golden_test)" >&2
    exit 1
fi

if [[ "$check" == "1" ]]; then
    tmp="$(mktemp -d)"
    trap 'rm -rf "$tmp"' EXIT
    NUAT_REGEN_GOLDEN=1 NUAT_GOLDEN_OUT_DIR="$tmp" "$bin" >/dev/null
    if diff -ru "$repo/tests/golden" "$tmp"; then
        echo "golden snapshots are up to date ($(ls "$tmp" | wc -l) files)"
    else
        echo >&2
        echo "error: golden snapshots drifted from the simulator." >&2
        echo "If the change is intentional, run tools/regen_golden.sh" >&2
        echo "and commit the updated tests/golden/." >&2
        exit 1
    fi
    exit 0
fi

mkdir -p "$repo/tests/golden"
NUAT_REGEN_GOLDEN=1 "$bin"
echo "regenerated $(ls "$repo"/tests/golden | wc -l) snapshots in tests/golden/"
git -C "$repo" --no-pager diff --stat -- tests/golden || true
