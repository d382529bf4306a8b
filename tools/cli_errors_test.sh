#!/usr/bin/env bash
# Bad command lines must fail cleanly, each with its documented exit
# code: nuat_sim exits 1 on a usage or fatal error (3 for a failed
# --compare entry); nuat_serve exits 64 on a bad command line and 65
# on a malformed workload or chaos profile.  Every such single-run
# failure prints exactly one diagnostic line on stderr.  None may die
# on a signal (exit 134 is SIGABRT) or hang: each run is bounded by
# `timeout`, whose exit 124 fails the case like any other wrong code.
#
# Usage: tools/cli_errors_test.sh path/to/nuat_sim
#        tools/cli_errors_test.sh path/to/nuat_serve
set -u

bin="${1:?usage: $0 path/to/nuat_sim|path/to/nuat_serve}"
tool="$(basename "$bin")"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
missing=/nonexistent-dir/out
fails=0

expect() {
    local want="$1"
    shift
    timeout 20 "$bin" "$@" >"$tmp/stdout" 2>"$tmp/stderr"
    local got=$?
    local lines
    lines=$(wc -l <"$tmp/stderr")
    if [[ "$got" != "$want" ]]; then
        echo "FAIL  exit $got, want $want: $tool $*"
        sed 's/^/      /' "$tmp/stderr" | tail -3
        fails=$((fails + 1))
    elif [[ "$want" != 0 && "$want" != 3 && "$lines" != 1 ]]; then
        echo "FAIL  $lines stderr lines, want 1: $tool $*"
        sed 's/^/      /' "$tmp/stderr" | tail -3
        fails=$((fails + 1))
    else
        echo "PASS  exit $got: $tool $*"
    fi
}

case "$tool" in
  nuat_sim)
    small=(--ops 200)
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
    ;;
  nuat_serve)
    small=(--deterministic --requests 200)
    expect 64 --queue-capacity 0 "${small[@]}"
    expect 64 --queue-capacity 99999999999999 "${small[@]}"
    expect 64 --queue-capacity 9223372036854775809 "${small[@]}" # 2^63+1
    expect 64 --shards 3 "${small[@]}"
    expect 64 --deadline 1,2 "${small[@]}"
    expect 64 --watchdog-polls 0 "${small[@]}"
    expect 65 --workloads nosuch "${small[@]}"
    expect 65 --chaos-profile nosuch "${small[@]}"
    ;;
  *)
    echo "$0: no cases for '$tool'"
    exit 2
    ;;
esac
expect 0 "${small[@]}" # control: a good invocation still runs

if [[ "$fails" != 0 ]]; then
    echo "$fails bad invocation(s) did not fail cleanly"
    exit 1
fi
echo "every bad invocation failed cleanly"
