#!/usr/bin/env bash
# Bad nuat_sim invocations must fail cleanly: each exits with its
# documented code (1 usage/fatal, 3 a failed --compare entry) and a
# single-run failure prints exactly one diagnostic line on stderr.
# None may die on a signal (exit 134 is SIGABRT).
#
# Usage: tools/cli_errors_test.sh path/to/nuat_sim
set -u

sim="${1:?usage: $0 path/to/nuat_sim}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
missing=/nonexistent-dir/out
small=(--ops 200)
fails=0

expect() {
    local want="$1"
    shift
    "$sim" "$@" >"$tmp/stdout" 2>"$tmp/stderr"
    local got=$?
    local lines
    lines=$(wc -l <"$tmp/stderr")
    if [[ "$got" != "$want" ]]; then
        echo "FAIL  exit $got, want $want: nuat_sim $*"
        sed 's/^/      /' "$tmp/stderr" | tail -3
        fails=$((fails + 1))
    elif [[ "$want" == 1 && "$lines" != 1 ]]; then
        echo "FAIL  $lines stderr lines, want 1: nuat_sim $*"
        sed 's/^/      /' "$tmp/stderr" | tail -3
        fails=$((fails + 1))
    else
        echo "PASS  exit $got: nuat_sim $*"
    fi
}

expect 1 --ops abc
expect 1 --pb 0
expect 1 --channels 3
expect 1 --metrics-interval 0 --metrics-out "$tmp/m.jsonl" "${small[@]}"
expect 1 --metrics-interval abc
expect 1 --gap-scale abc
expect 1 --dump-trace "$missing" "${small[@]}"
expect 1 --metrics-out "$missing" "${small[@]}"
expect 1 --trace-events "$missing" "${small[@]}"
expect 3 --compare --metrics-out "$missing" "${small[@]}"
expect 0 "${small[@]}" # control: a good invocation still runs

if [[ "$fails" != 0 ]]; then
    echo "$fails bad invocation(s) did not fail cleanly"
    exit 1
fi
echo "every bad invocation failed cleanly"
