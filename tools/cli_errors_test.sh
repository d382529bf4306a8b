#!/usr/bin/env bash
# Bad command lines must fail cleanly, each with its documented exit
# code: nuat_sim exits 1 on a usage or fatal error (3 for a failed
# --compare entry); nuat_serve exits 64 on a bad command line and 65
# on a malformed workload or chaos profile.  Every such single-run
# failure prints exactly one diagnostic line on stderr; a bad profile
# file value must name its path:line there.  None may die on a signal
# (exit 134 is SIGABRT) or hang: each run is bounded by `timeout`,
# whose exit 124 fails the case like any other wrong code.
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

# names TEXT: the last run's diagnostic contains TEXT.
names() {
    grep -qF -- "$1" "$tmp/stderr" && return
    echo "FAIL  diagnostic does not name '$1'"
    fails=$((fails + 1))
}

# bad_profile CODE FLAG LINE...: a profile file whose last line holds
# a bad value fails with CODE, naming that path:line.
bad_profile() {
    local want="$1" flag="$2"
    shift 2
    printf '%s\n' "$@" >"$tmp/profile.conf"
    echo "      profile line $#: ${!#}"
    expect "$want" "$flag" "$tmp/profile.conf" "${small[@]}"
    names "$tmp/profile.conf:$#:"
}

case "$tool" in
  nuat_sim)
    small=(--ops 200)
    expect 1 --ops abc
    expect 1 --pb 0
    expect 1 --channels 3
    expect 1 --channels 1073741824 "${small[@]}"
    expect 1 --metrics-interval 0 --metrics-out "$tmp/m.jsonl" "${small[@]}"
    expect 1 --metrics-interval abc
    expect 1 --gap-scale abc
    expect 1 --dump-trace "$missing" "${small[@]}"
    expect 1 --metrics-out "$missing" "${small[@]}"
    expect 1 --trace-events "$missing" "${small[@]}"
    expect 3 --compare --metrics-out "$missing" "${small[@]}"
    bad_profile 1 --fault-profile "vrt_fraction = 0.1" "vrt_mult = 2" \
        "vrt_period_cycles = -1"
    bad_profile 1 --fault-profile "temp_step = -5 2.0"
    bad_profile 1 --fault-profile "ref_drop_prob = 0.1" \
        "ref_burst_max = 4294967296"
    # Captured-trace headers no run can produce: 0 banks, 0 bank
    # groups, tREFI 0, and channel counts that are not a power of two
    # within the channel bound.
    "$bin" "${small[@]}" --dump-trace "$tmp/good.trc" >/dev/null
    for edit in 's/^geometry \([0-9]*\) [0-9]*/geometry \1 0/' \
                's/^\(timing-ext .*\) [0-9]*$/\1 0/' \
                's/^\(timing\( [0-9]*\)\{16\}\) [0-9]*/\1 0/' \
                's/^channels .*/channels 3/' \
                's/^channels .*/channels 4000000000/'; do
        sed "$edit" "$tmp/good.trc" >"$tmp/bad.trc"
        echo "      header edit: $edit"
        expect 1 --replay-trace "$tmp/bad.trc"
        names "replay failed"
    done
    ;;
  nuat_serve)
    small=(--deterministic --requests 200)
    expect 64 --queue-capacity 0 "${small[@]}"
    expect 64 --queue-capacity 99999999999999 "${small[@]}"
    expect 64 --queue-capacity 9223372036854775809 "${small[@]}" # 2^63+1
    expect 64 --shards 3 "${small[@]}"
    expect 64 --shards 1073741824 "${small[@]}"
    expect 64 --shards 65536 --requests 200 # threaded: one thread each
    expect 64 --producers 1073741824 "${small[@]}"
    expect 64 --deadline 1,2 "${small[@]}"
    expect 64 --watchdog-polls 0 "${small[@]}"
    expect 64 --no-watchdog "${small[@]}"
    expect 65 --workloads nosuch "${small[@]}"
    expect 65 --chaos-profile nosuch "${small[@]}"
    bad_profile 65 --chaos-profile "burst_gap = 10" "burst_len = -1"
    bad_profile 65 --chaos-profile "stall = 0 10 20 junk"
    bad_profile 65 --chaos-profile "stall = 4294967296 10 20"
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
