#!/usr/bin/env bash
# Check that two builds of the simulator produce the same outputs.
#
# Usage: tools/equivalence.sh BASE_BUILD NEW_BUILD
#
# Each argument is a CMake build tree holding tools/nuat_sim and
# tools/nuat_serve (targets nuat_sim_cli and nuat_serve).  The script
# runs one grid of cells with both builds' binaries:
#
#  - 290 audited `nuat_sim --csv --dump-trace` cells, 4000 ops per core:
#    5 schedulers x DDR3/DDR4/DDR5 x {all-bank, per-bank inorder/DARP/
#    SARP} x 2 workload mixes x 1 or 2 channels (240), plus 5 fault
#    profiles x 3 schedulers x 2 mixes (30), plus 20 saturated cells:
#    perfbench's two mc8-contended 8-core mixes on one channel x 5
#    schedulers x {DDR3 all-bank, DDR5 per-bank SARP}, the only sim
#    cells that fill the read queue.  Stdout and the command trace must
#    match byte for byte.
#  - 49 deterministic audited `nuat_serve --json` cells, 4000 requests
#    per producer: 5 schedulers x 1/2/4 shards x block/bounded/shed
#    admission (45), plus the 4 built-in chaos profiles.  The JSON must
#    match once wall_s and requests_per_s (wall-clock) are removed.
#
# A cell also fails when either side exits nonzero (an audit violation
# exits 2).  Prints every failing cell, then a summary line.
# Exit: 0 every cell matches, 1 some cell differs or fails, 2 usage.
set -euo pipefail

if [[ $# -ne 2 ]]; then
    echo "usage: $0 BASE_BUILD NEW_BUILD" >&2
    exit 2
fi
for build in "$1" "$2"; do
    for bin in nuat_sim nuat_serve; do
        if [[ ! -x "$build/tools/$bin" ]]; then
            echo "error: $build/tools/$bin not built" >&2
            exit 2
        fi
    done
done
base="$1/tools"
new="$2/tools"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

cells=0
differ=0

# fail CELL WHAT: report one failing cell.
fail() {
    echo "DIFF $1: $2"
    differ=$((differ + 1))
}

# sim_cell NAME ARGS...: one nuat_sim cell on both sides.
sim_cell() {
    local name="$1" side status
    shift
    cells=$((cells + 1))
    for side in base new; do
        local bin="$base/nuat_sim"
        [[ "$side" == base ]] || bin="$new/nuat_sim"
        status=0
        "$bin" "$@" --csv --audit --ops 4000 \
               --dump-trace "$tmp/$side.trace" \
               >"$tmp/$side.out" 2>&1 || status=$?
        if [[ "$status" != 0 ]]; then
            fail "$name" "$side exited $status"
            return
        fi
    done
    if ! cmp -s "$tmp/base.out" "$tmp/new.out"; then
        fail "$name" "stdout differs"
    elif ! cmp -s "$tmp/base.trace" "$tmp/new.trace"; then
        fail "$name" "command trace differs at $(cmp "$tmp/base.trace" \
             "$tmp/new.trace" | sed 's/.*: //')"
    fi
}

# serve_cell NAME ARGS...: one deterministic nuat_serve cell on both
# sides.
serve_cell() {
    local name="$1" side status
    shift
    cells=$((cells + 1))
    for side in base new; do
        local bin="$base/nuat_serve"
        [[ "$side" == base ]] || bin="$new/nuat_serve"
        status=0
        "$bin" "$@" --deterministic --audit --json --producers 2 \
               --workloads ferret,libq --requests 4000 \
               >"$tmp/$side.json" 2>"$tmp/$side.err" || status=$?
        if [[ "$status" != 0 ]]; then
            fail "$name" "$side exited $status"
            return
        fi
    done
    local why
    why=$(python3 - "$tmp/base.json" "$tmp/new.json" <<'PY'
import json, sys

a, b = (json.load(open(p)) for p in sys.argv[1:3])
for d in (a, b):
    d.pop("wall_s", None)
    d.pop("requests_per_s", None)
keys = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
print(" ".join(keys))
PY
)
    [[ -z "$why" ]] || fail "$name" "JSON differs in: $why"
}

mixes=(libq,mummer comm1,leslie,ferret,stream)
schedulers=(nuat fcfs frfcfs-open frfcfs-close frfcfs-adaptive)

for sched in "${schedulers[@]}"; do
    for gen in ddr3-1600 ddr4-2400 ddr5-4800; do
        for refresh in all-bank per-bank:inorder per-bank:darp \
                       per-bank:sarp; do
            mode="${refresh%%:*}"
            args=(--scheduler "$sched" --dram-gen "$gen"
                  --refresh-mode "$mode")
            [[ "$mode" == all-bank ]] ||
                args+=(--refresh-policy "${refresh#*:}")
            for mix in "${mixes[@]}"; do
                for channels in 1 2; do
                    sim_cell "sim $sched $gen $refresh $mix ch$channels" \
                             "${args[@]}" --workloads "$mix" \
                             --channels "$channels"
                done
            done
        done
    done
done

# Eight cores on one channel keep both queues deep; the streaming-write
# mix fills the read queue, so reads wait on a full queue.
saturated=(mummer,tigr,MT-canneal,comm1,comm2,black,freq,swapt
           libq,stream,MT-fluid,ferret,face,comm3,fluid,leslie)
for sched in "${schedulers[@]}"; do
    for gen in ddr3-1600:all-bank ddr5-4800:per-bank; do
        args=(--scheduler "$sched" --dram-gen "${gen%%:*}"
              --refresh-mode "${gen#*:}")
        [[ "${gen#*:}" == all-bank ]] || args+=(--refresh-policy sarp)
        for mix in "${saturated[@]}"; do
            sim_cell "sim saturated $sched $gen ${mix%%,*}-mix" \
                     "${args[@]}" --workloads "$mix"
        done
    done
done

for profile in weak-cells thermal-spike vrt refresh-storm stress; do
    for sched in nuat frfcfs-open fcfs; do
        for mix in "${mixes[@]}"; do
            sim_cell "sim fault $profile $sched $mix" \
                     --fault-profile "$profile" --scheduler "$sched" \
                     --workloads "$mix"
        done
    done
done

for sched in "${schedulers[@]}"; do
    for shards in 1 2 4; do
        for admission in block bounded shed; do
            serve_cell "serve $sched shards$shards $admission" \
                       --scheduler "$sched" --shards "$shards" \
                       --admission "$admission"
        done
    done
done

for profile in burst-storm poison shard-stall storm-stall; do
    serve_cell "serve chaos $profile" --chaos-profile "$profile" \
               --admission bounded --deadline 4000
done

echo "equivalence: $cells cells, $differ differ"
[[ "$differ" == 0 ]]
