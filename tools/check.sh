#!/usr/bin/env bash
# Full check: optimized build + tests (including the differential and
# golden suites), audited smoke runs of the figure benches, then an
# ASan/UBSan build + tests.
#
# Run from the repository root:
#   ./tools/check.sh [--quick] [--lint] [--faults] [--sanitize asan|tsan|ubsan] [extra ctest args...]
#
# --quick: Release build + tests + audited bench smoke only (skips the
#          sanitizer build; for fast local iteration).
#
# --lint:  ONLY the static-analysis lane, matching CI: nuat_lint
#          selftest + tree lint, a -Werror Release build, then
#          clang-tidy and clang-format when the binaries are installed
#          (skipped with a warning otherwise — CI always has them).
#
# --sanitize asan: ONLY the ASan/UBSan build + full test suite (the CI
#          sanitizer job).
# --sanitize tsan: ONLY the TSan build + the threaded tests (the
#          parallel runner, the MPSC ingest ring and the sharded
#          serve runtime are the threaded code, so the TSan job runs
#          those suites rather than everything).
# --sanitize ubsan: ONLY the standalone UBSan build + full test suite
#          + an audited serve smoke.  Unlike the ASan lane (whose
#          bundled UBSan prints and continues), this lane compiles
#          with -fno-sanitize-recover=all, so every finding aborts
#          and fails the run.
#
# --faults: ONLY the robustness lane, matching CI: the fault/guardband/
#          auditor/differential test suites, audited smoke runs of
#          every built-in fault profile under degradation (must stay
#          violation-free), and the negative control (--no-degrade must
#          trip the charge-margin rule, exit 2).  See ROBUSTNESS.md.
#
# --chaos: ONLY the serving-resilience lane, matching CI: the serve/
#          chaos/ring test suites, then the deterministic chaos matrix
#          (every built-in chaos profile x every admission policy, each
#          cell run twice under --audit).  Each cell must be
#          violation-free, conserve requests per priority class, and
#          produce byte-identical counters across the two runs.  A
#          profile file whose stall never ends must fail the run with
#          the watchdog's line, deterministic and threaded.  A
#          chaos-off control run (nothing shed, produced == retired)
#          and a bad-config check (--pb 0 must exit 64) close the
#          lane.  See ROBUSTNESS.md.
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS=$(nproc 2>/dev/null || echo 4)

QUICK=0
LINT=0
FAULTS=0
CHAOS=0
SANITIZE=""
while [[ $# -gt 0 ]]; do
    case "$1" in
      --quick)
        QUICK=1
        shift
        ;;
      --lint)
        LINT=1
        shift
        ;;
      --faults)
        FAULTS=1
        shift
        ;;
      --chaos)
        CHAOS=1
        shift
        ;;
      --sanitize)
        SANITIZE="${2:?--sanitize needs asan, tsan or ubsan}"
        shift 2
        ;;
      *)
        break
        ;;
    esac
done

if [[ "$LINT" == "1" ]]; then
    echo "=== nuat-lint (selftest + tree) ==="
    python3 tools/nuat_lint.py --selftest
    python3 tools/nuat_lint.py

    echo
    echo "=== Warnings-as-errors Release build ==="
    cmake -B build-lint -S . -DCMAKE_BUILD_TYPE=Release \
          -DNUAT_WERROR=ON -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
    cmake --build build-lint -j "$JOBS"

    echo
    if command -v clang++ >/dev/null 2>&1; then
        echo "=== clang -Wthread-safety -Werror build ==="
        # Also runs the negative-compile probe at configure time
        # (tests/thread_safety_probe/).
        CC=clang CXX=clang++ cmake -B build-lint-ts -S . \
            -DCMAKE_BUILD_TYPE=Release -DNUAT_WERROR=ON >/dev/null
        cmake --build build-lint-ts -j "$JOBS"
    else
        echo "warning: clang not installed, skipping -Wthread-safety" \
             "build (CI runs it)"
    fi

    echo
    if command -v run-clang-tidy >/dev/null 2>&1; then
        echo "=== clang-tidy (.clang-tidy profile) ==="
        run-clang-tidy -p build-lint -quiet 'src/.*\.cc$' 'tools/.*\.cc$'
    else
        echo "warning: clang-tidy not installed, skipping (CI runs it)"
    fi

    echo
    if command -v clang-format >/dev/null 2>&1; then
        echo "=== clang-format check ==="
        git ls-files '*.cc' '*.hh' |
            xargs clang-format --dry-run --Werror
    else
        echo "warning: clang-format not installed, skipping (CI runs it)"
    fi

    echo
    echo "Lint lane passed."
    exit 0
elif [[ "$FAULTS" == "1" ]]; then
    echo "=== Robustness lane: build ==="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$JOBS"

    echo
    echo "=== Fault/guardband/auditor/differential tests ==="
    ctest --test-dir build-release -j "$JOBS" --output-on-failure \
          -R 'fault|auditor|differential|golden' "$@"

    sim=./build-release/tools/nuat_sim
    echo
    echo "=== Audited faulted smoke (degradation on, all profiles) ==="
    # Every built-in profile, every issued command re-checked by the
    # shadow auditor with the charge_margin rule armed: the guardband
    # ladder must keep each run violation-free (exit 0).
    for profile in weak-cells thermal-spike vrt refresh-storm stress; do
        echo "--- profile $profile"
        "$sim" --workloads libq --scheduler nuat --ops 20000 \
               --audit --fault-profile "$profile" >/dev/null
    done

    echo
    echo "=== Audited DDR5 smoke (per-bank refresh under the auditor) ==="
    # The newest generation preset end to end: REFsb scheduling,
    # bank-group timing, every command re-checked by the auditor's
    # independently derived per-bank legality rules.
    "$sim" --workloads libq --scheduler nuat --ops 20000 \
           --dram-gen ddr5-4800 --audit >/dev/null
    # Fault injection is all-bank only (the model keys on the rank-wide
    # refresh counter), so cross DDR5 timing with legacy all-bank REF.
    "$sim" --workloads libq --scheduler nuat --ops 20000 \
           --dram-gen ddr5-4800 --refresh-mode all-bank \
           --audit --fault-profile stress >/dev/null
    echo "ddr5 audit clean"

    echo
    echo "=== Negative control (degradation off must trip the rule) ==="
    # Without the ladder the stress profile MUST produce charge-margin
    # violations — otherwise the injection or the audit rule is
    # vacuous and the green lane above proves nothing.
    if "$sim" --workloads libq --scheduler nuat --ops 20000 \
              --audit --fault-profile stress --no-degrade >/dev/null; then
        echo "error: --no-degrade run was violation-free; the" >&2
        echo "charge-margin rule or the fault injection is broken" >&2
        exit 1
    else
        status=$?
        if [[ "$status" != "2" ]]; then
            echo "error: expected audit-violation exit 2, got $status" >&2
            exit 1
        fi
    fi
    echo "negative control tripped as expected (exit 2)"

    echo
    echo "Robustness lane passed."
    exit 0
elif [[ "$CHAOS" == "1" ]]; then
    echo "=== Chaos lane: build ==="
    cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build-release -j "$JOBS"

    echo
    echo "=== Serve/chaos/ring tests ==="
    ctest --test-dir build-release -j "$JOBS" --output-on-failure \
          -R 'serve_runtime|chaos|mpsc_queue' "$@"

    serve=./build-release/tools/nuat_serve

    # Two identical deterministic runs per cell: counters must be
    # byte-identical (only wall-clock fields may differ), audits
    # clean, and conservation must hold per priority class.
    check_cell() {
        local profile="$1" policy="$2"
        local args=(--deterministic --chaos-profile "$profile"
                    --admission "$policy" --audit --json
                    --shards 2 --producers 2 --requests 5000
                    --queue-capacity 256 --deadline 4000)
        local a b
        a=$("$serve" "${args[@]}")
        b=$("$serve" "${args[@]}")
        python3 - "$a" "$b" "$profile" "$policy" <<'PY'
import json, sys

a, b = json.loads(sys.argv[1]), json.loads(sys.argv[2])
profile, policy = sys.argv[3], sys.argv[4]
for k in ("wall_s", "requests_per_s"):
    a.pop(k, None)
    b.pop(k, None)
if a != b:
    sys.exit("determinism broken for %s/%s:\n  %r\n  %r"
             % (profile, policy, a, b))
if a["audit_violations"] != 0:
    sys.exit("audit violations under %s/%s" % (profile, policy))
if a["produced"] != a["retired"] + a["shed_total"]:
    sys.exit("conservation broken under %s/%s: %d produced != "
             "%d retired + %d shed"
             % (profile, policy, a["produced"], a["retired"],
                a["shed_total"]))
for i, c in enumerate(a["classes"]):
    if c["produced"] != c["retired"] + c["shed"]:
        sys.exit("class %d conservation broken under %s/%s"
                 % (i, profile, policy))
print("    ok: produced=%d retired=%d shed=%d"
      % (a["produced"], a["retired"], a["shed_total"]))
PY
    }

    echo
    echo "=== Deterministic chaos matrix (profile x admission) ==="
    for profile in burst-storm poison shard-stall storm-stall; do
        for policy in block bounded shed; do
            echo "--- $profile / $policy"
            check_cell "$profile" "$policy"
        done
    done

    echo
    echo "=== Frozen shard (the watchdog must fail the run, not hang) ==="
    # A stall far longer than the watchdog's window: both modes must
    # exit 1 with the watchdog's one-line diagnostic.
    frozen=$(mktemp)
    trap 'rm -f "$frozen"' EXIT
    echo "stall = 0 100 1073741824" >"$frozen"
    for mode in deterministic threaded; do
        args=(--chaos-profile "$frozen" --requests 5000 --queue-capacity 256)
        [[ "$mode" == threaded ]] || args+=(--deterministic)
        status=0
        err=$("$serve" "${args[@]}" 2>&1 >/dev/null) || status=$?
        [[ "$status" == "1" && "$err" == *"watchdog: shard 0"* ]] ||
            { echo "error: $mode frozen run exited $status: $err" >&2; exit 1; }
        echo "    ok ($mode): $err"
    done

    echo
    echo "=== Chaos-off control (resilience layer must be invisible) ==="
    "$serve" --deterministic --audit --json --shards 2 --producers 2 \
             --requests 5000 --queue-capacity 256 |
        python3 -c '
import json, sys
d = json.load(sys.stdin)
assert d["shed_total"] == 0, "clean run shed requests"
assert d["produced"] == d["retired"], "clean run lost requests"
assert d["audit_violations"] == 0, "clean run had violations"
print("    ok: produced=%d retired=%d" % (d["produced"], d["retired"]))
'

    echo
    echo "=== Bad serve config (must be a usage error, not an abort) ==="
    status=0
    "$serve" --pb 0 --requests 10 >/dev/null 2>&1 || status=$?
    [[ "$status" == "64" ]] ||
        { echo "error: nuat_serve --pb 0 exited $status, not 64" >&2; exit 1; }
    echo "    ok: --pb 0 exits 64"

    echo
    echo "Chaos lane passed."
    exit 0
elif [[ "$SANITIZE" == "asan" ]]; then
    echo "=== ASan/UBSan build + tests ==="
    cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DENABLE_ASAN=ON >/dev/null
    cmake --build build-asan -j "$JOBS"
    ctest --test-dir build-asan -j "$JOBS" --output-on-failure "$@"
    echo "ASan/UBSan checks passed."
    exit 0
elif [[ "$SANITIZE" == "tsan" ]]; then
    echo "=== TSan build + threaded tests ==="
    cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DENABLE_TSAN=ON >/dev/null
    cmake --build build-tsan -j "$JOBS"
    ctest --test-dir build-tsan -j "$JOBS" --output-on-failure \
          -R 'parallel_runner|mpsc_queue|serve_runtime' "$@"
    echo "TSan checks passed."
    exit 0
elif [[ "$SANITIZE" == "ubsan" ]]; then
    echo "=== UBSan build (findings fatal) + tests ==="
    cmake -B build-ubsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
          -DENABLE_UBSAN=ON >/dev/null
    cmake --build build-ubsan -j "$JOBS"
    ctest --test-dir build-ubsan -j "$JOBS" --output-on-failure "$@"

    echo
    echo "=== Audited serve smoke under UBSan ==="
    # The threaded hot path (shards + MPSC ring) at a size small enough
    # for a sanitized binary; exit 2 on any audit violation, and any
    # UBSan finding aborts (-fno-sanitize-recover=all).
    ./build-ubsan/tools/nuat_serve --shards 2 --producers 2 \
        --requests 2000 --workloads libq,ferret --audit >/dev/null
    echo "serve smoke clean"
    echo "UBSan checks passed."
    exit 0
elif [[ -n "$SANITIZE" ]]; then
    echo "error: --sanitize must be asan, tsan or ubsan, got '$SANITIZE'" >&2
    exit 2
fi

echo "=== Release build + tests ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-release -j "$JOBS"
ctest --test-dir build-release -j "$JOBS" --output-on-failure "$@"

echo
echo "=== Audited bench smoke (fig18/fig20, tiny traces) ==="
# Every issued DRAM command of these runs is re-checked by the shadow
# protocol auditor; the bench exits 2 on any violation.
NUAT_BENCH_AUDIT=1 NUAT_BENCH_OPS=2000 NUAT_BENCH_THREADS=0 \
    ./build-release/bench/bench_fig18_latency >/dev/null
NUAT_BENCH_AUDIT=1 NUAT_BENCH_OPS=2000 NUAT_BENCH_THREADS=0 \
    ./build-release/bench/bench_fig20_exectime >/dev/null
echo "bench audit clean"

echo
echo "=== Audited DDR5 smoke (per-bank refresh under the auditor) ==="
./build-release/tools/nuat_sim --workloads libq --scheduler nuat \
    --ops 20000 --dram-gen ddr5-4800 --audit >/dev/null
echo "ddr5 audit clean"

if [[ "$QUICK" == "1" ]]; then
    echo
    echo "Quick checks passed (sanitizer build skipped)."
    exit 0
fi

echo
echo "=== ASan/UBSan build + tests ==="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DENABLE_ASAN=ON >/dev/null
cmake --build build-asan -j "$JOBS"
ctest --test-dir build-asan -j "$JOBS" --output-on-failure "$@"

echo
echo "All checks passed."
