#!/usr/bin/env python3
"""Performance regression gate for the NUAT benches.

Subcommands:

  collect   run the figure benches (simulated-cycle throughput) and the
            bench_micro hot-path timings, and write them to a
            BENCH_<rev>.json snapshot.
  compare   diff a candidate snapshot against a committed baseline and
            exit non-zero when any metric regressed beyond the
            threshold.
  selftest  machine-independent check of the gate logic itself: builds
            synthetic baseline/candidate snapshots and asserts that a
            clean run passes and an injected regression fails.

Metric direction is keyed on the metric name suffix:
  *.mcycles_per_s          higher is better (simulated throughput)
  *.requests_per_s         higher is better (nuat_serve throughput)
  *.cpu_ns                 lower is better (bench_micro per-op time)
  *.shed_ratio_under_storm lower is better (requests shed under the
                           deterministic burst-storm chaos profile —
                           exact, machine-independent, so a rise means
                           the serving layer genuinely lost capacity)

The default threshold is generous (25%) because CI runners are noisy
and share cores; override with --threshold or NUAT_BENCH_GATE_THRESHOLD
for quieter machines.  The gate is meant to catch order-of-magnitude
mistakes (an accidentally quadratic queue scan, a hot-path allocation),
not single-digit drift.
"""

import argparse
import json
import os
import re
import subprocess
import sys

SCHEMA = 1
DEFAULT_THRESHOLD = 0.25

# Figure benches that print a machine-readable {"bench":...} line.
THROUGHPUT_BENCHES = ["bench_fig18_latency", "bench_fig20_exectime"]
MICRO_FILTER = "BM_SystemMemCycle|BM_SchedulerPick"


def higher_is_better(name):
    if name.endswith(".mcycles_per_s"):
        return True
    if name.endswith(".requests_per_s"):
        return True
    if name.endswith(".cpu_ns"):
        return False
    if name.endswith(".shed_ratio_under_storm"):
        return False
    raise ValueError("unknown metric direction for %r" % name)


def git_rev(repo):
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=repo, capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def run_throughput_bench(build_dir, bench, ops, threads):
    """Run one figure bench; return its mcycles_per_s."""
    exe = os.path.join(build_dir, "bench", bench)
    env = dict(os.environ)
    env["NUAT_BENCH_OPS"] = str(ops)
    env["NUAT_BENCH_THREADS"] = str(threads)
    proc = subprocess.run([exe], env=env, capture_output=True,
                          text=True, check=True)
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith('{"bench"'):
            return json.loads(line)["mcycles_per_s"]
    raise RuntimeError("%s printed no throughput JSON line" % bench)


def run_micro(build_dir, min_time):
    """Run bench_micro; return {name: cpu_ns}."""
    exe = os.path.join(build_dir, "bench", "bench_micro")
    proc = subprocess.run(
        [exe, "--benchmark_filter=" + MICRO_FILTER,
         "--benchmark_format=json",
         "--benchmark_min_time=%g" % min_time],
        capture_output=True, text=True, check=True)
    data = json.loads(proc.stdout)
    out = {}
    for b in data["benchmarks"]:
        if b.get("run_type", "iteration") != "iteration":
            continue
        assert b["time_unit"] == "ns", b
        out[b["name"]] = b["cpu_time"]
    return out


def run_serve(build_dir, shards, producers, requests):
    """Run nuat_serve; return its requests_per_s."""
    exe = os.path.join(build_dir, "tools", "nuat_serve")
    proc = subprocess.run(
        [exe, "--shards", str(shards), "--producers", str(producers),
         "--requests", str(requests), "--json"],
        capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith('{"serve"'):
            return json.loads(line)["requests_per_s"]
    raise RuntimeError("nuat_serve printed no JSON summary line")


def run_serve_storm(build_dir):
    """Run the deterministic burst-storm cell; return shed ratio.

    Unlike the wall-clock metrics this one is exact: same binary, same
    (profile, seed) => same counters on every machine, so the gate
    catches real capacity loss rather than runner noise.
    """
    exe = os.path.join(build_dir, "tools", "nuat_serve")
    proc = subprocess.run(
        [exe, "--deterministic", "--chaos-profile", "burst-storm",
         "--admission", "shed", "--shards", "2", "--producers", "2",
         "--requests", "20000", "--queue-capacity", "256", "--json"],
        capture_output=True, text=True, check=True)
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith('{"serve"'):
            data = json.loads(line)
            return data["shed_total"] / data["produced"]
    raise RuntimeError("nuat_serve printed no JSON summary line")


def cmd_collect(args):
    metrics = {}
    for bench in THROUGHPUT_BENCHES:
        key = bench.split("_")[1]  # bench_fig18_latency -> fig18
        rate = run_throughput_bench(args.build_dir, bench, args.ops,
                                    args.threads)
        metrics["%s.mcycles_per_s" % key] = rate
        print("collect: %s.mcycles_per_s = %.1f" % (key, rate))
    rps = run_serve(args.build_dir, args.serve_shards,
                    args.serve_shards, args.serve_requests)
    metrics["serve.requests_per_s"] = rps
    print("collect: serve.requests_per_s = %.1f" % rps)
    shed = run_serve_storm(args.build_dir)
    metrics["serve.shed_ratio_under_storm"] = shed
    print("collect: serve.shed_ratio_under_storm = %.6f" % shed)
    for name, cpu_ns in sorted(run_micro(args.build_dir,
                                         args.min_time).items()):
        metrics["micro.%s.cpu_ns" % name] = cpu_ns
        print("collect: micro.%s.cpu_ns = %.1f" % (name, cpu_ns))
    snap = {"schema": SCHEMA, "rev": git_rev(args.build_dir),
            "metrics": metrics}
    out = args.out or ("BENCH_%s.json" % snap["rev"])
    with open(out, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")
    print("collect: wrote %s" % out)
    return 0


def load_snapshot(path):
    with open(path) as f:
        snap = json.load(f)
    if snap.get("schema") != SCHEMA:
        raise RuntimeError("%s: unsupported schema %r"
                           % (path, snap.get("schema")))
    return snap


def compare_metrics(baseline, candidate, threshold):
    """Return (report_lines, regressions) for two metric dicts."""
    lines, regressions = [], []
    for name in sorted(baseline):
        base = baseline[name]
        if name not in candidate:
            regressions.append(name)
            lines.append("MISSING %-40s baseline %.1f, candidate "
                         "absent" % (name, base))
            continue
        cand = candidate[name]
        better = higher_is_better(name)
        if base <= 0:
            change = 0.0
        else:
            change = (cand - base) / base
        regressed = (change < -threshold) if better \
            else (change > threshold)
        verdict = "FAIL" if regressed else "ok"
        lines.append(
            "%-4s %-40s baseline %10.1f  candidate %10.1f  %+6.1f%% "
            "(%s is better, limit %.0f%%)"
            % (verdict, name, base, cand, change * 100.0,
               "higher" if better else "lower", threshold * 100.0))
        if regressed:
            regressions.append(name)
    return lines, regressions


def cmd_compare(args):
    baseline = load_snapshot(args.baseline)
    candidate = load_snapshot(args.candidate)
    lines, regressions = compare_metrics(
        baseline["metrics"], candidate["metrics"], args.threshold)
    print("bench gate: %s (rev %s) vs %s (rev %s), threshold %.0f%%"
          % (args.candidate, candidate.get("rev"), args.baseline,
             baseline.get("rev"), args.threshold * 100.0))
    for line in lines:
        print("  " + line)
    if regressions:
        print("bench gate: FAIL — %d metric(s) regressed: %s"
              % (len(regressions), ", ".join(regressions)))
        return 1
    print("bench gate: ok — no regression beyond the threshold")
    return 0


def cmd_selftest(args):
    base = {
        "fig18.mcycles_per_s": 100.0,
        "fig20.mcycles_per_s": 80.0,
        "serve.requests_per_s": 50000.0,
        "serve.shed_ratio_under_storm": 0.01,
        "micro.BM_SystemMemCycle/nuat:1.cpu_ns": 240.0,
        "micro.BM_SchedulerPick/depth:64.cpu_ns": 300.0,
    }
    checks = [
        # (candidate overrides, expect_regressions)
        ({}, []),
        # Within the threshold, both directions.
        ({"fig18.mcycles_per_s": 90.0,
          "serve.requests_per_s": 45000.0,
          "micro.BM_SystemMemCycle/nuat:1.cpu_ns": 280.0}, []),
        # Throughput collapse must fail.
        ({"fig18.mcycles_per_s": 50.0}, ["fig18.mcycles_per_s"]),
        # Serve throughput collapse must fail (higher is better).
        ({"serve.requests_per_s": 20000.0}, ["serve.requests_per_s"]),
        # A small wobble in the storm shed ratio passes...
        ({"serve.shed_ratio_under_storm": 0.011}, []),
        # ...but shedding a lot more under the same storm must fail
        # (lower is better).
        ({"serve.shed_ratio_under_storm": 0.02},
         ["serve.shed_ratio_under_storm"]),
        # Hot-path slowdown must fail.
        ({"micro.BM_SystemMemCycle/nuat:1.cpu_ns": 400.0},
         ["micro.BM_SystemMemCycle/nuat:1.cpu_ns"]),
        # Scoring-core slowdown must fail (lower is better).
        ({"micro.BM_SchedulerPick/depth:64.cpu_ns": 500.0},
         ["micro.BM_SchedulerPick/depth:64.cpu_ns"]),
        # Improvements never fail, however large.
        ({"fig20.mcycles_per_s": 300.0,
          "serve.requests_per_s": 500000.0,
          "micro.BM_SystemMemCycle/nuat:1.cpu_ns": 10.0}, []),
        # A metric vanishing from the candidate must fail.
        ({"micro.BM_SystemMemCycle/nuat:1.cpu_ns": None},
         ["micro.BM_SystemMemCycle/nuat:1.cpu_ns"]),
        ({"serve.requests_per_s": None}, ["serve.requests_per_s"]),
        ({"serve.shed_ratio_under_storm": None},
         ["serve.shed_ratio_under_storm"]),
    ]
    failures = 0
    for overrides, expect in checks:
        cand = dict(base)
        for k, v in overrides.items():
            if v is None:
                del cand[k]
            else:
                cand[k] = v
        _, regressions = compare_metrics(base, cand, DEFAULT_THRESHOLD)
        if regressions != expect:
            failures += 1
            print("selftest: MISMATCH for %r: got %r, want %r"
                  % (overrides, regressions, expect))
    if failures:
        print("selftest: FAIL (%d case(s))" % failures)
        return 1
    print("selftest: ok (%d cases)" % len(checks))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("collect", help="run benches, write a snapshot")
    p.add_argument("--build-dir", default="build")
    p.add_argument("--out", default=None,
                   help="output path (default BENCH_<rev>.json)")
    p.add_argument("--ops", type=int, default=20000,
                   help="NUAT_BENCH_OPS for the figure benches")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--min-time", type=float, default=0.2,
                   help="--benchmark_min_time for bench_micro")
    p.add_argument("--serve-shards", type=int, default=2,
                   help="shards (and producers) for the nuat_serve run")
    p.add_argument("--serve-requests", type=int, default=20000,
                   help="requests per producer for the nuat_serve run")
    p.set_defaults(func=cmd_collect)

    p = sub.add_parser("compare", help="gate a candidate vs a baseline")
    p.add_argument("--baseline", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--threshold", type=float,
                   default=float(os.environ.get(
                       "NUAT_BENCH_GATE_THRESHOLD", DEFAULT_THRESHOLD)))
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("selftest",
                       help="verify the gate logic, no benches run")
    p.set_defaults(func=cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
