#!/usr/bin/env python3
"""The repository benchmark: build it, run it, compare two commits.

  python3 perfbench/benchmark.py run [--workload NAME] [--seed N]
          [--seconds N] [--trace 0|1]
  python3 perfbench/benchmark.py pair BASE_ROOT NEW_ROOT --out FILE
          [--seed N]
  python3 perfbench/benchmark.py compare FILE:SET FILE:SET
          [--claim METRIC@WORKLOAD]
  python3 perfbench/benchmark.py smoke --binary PATH
  python3 perfbench/benchmark.py selftest [--binary PATH]

`run` builds perfbench/ (the simulator libraries from src/ plus the
nuat_bench program) into .bench_build/ at the root, then runs each
workload in its own single-threaded process, one at a time.  It prints a
table per run and, as its last line, one JSON object: {"correct",
"attempted", "failed", "metrics"}, where the metrics are BENCHMARK.json's
end-to-end metrics with --trace 0 and its per-layer metrics with
--trace 1.

`pair` builds two checkouts and runs them seed by seed, alternating
which side runs first, into the sets "base" and "new" of FILE.
`compare` applies the rules of the README's "Comparing two commits"
section to two such sets.

Exit status: 0 ok, 1 a correctness check (or comparison) failed,
2 the benchmark itself could not run (build failure, bad spec).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")

# Paper figures the NUAT gains are printed beside (ShinYCK14 Fig. 18 /
# Fig. 20, averages vs FR-FCFS open-page).  A shape reference only.
PAPER_GAINS = {"nuat_latency_gain_pct": 16.1, "nuat_exec_gain_pct": 8.1}

# Seeds `pair` runs: a claim needs at least ten pairs.
PAIRS = 10


class BenchError(Exception):
    """The benchmark could not run (exit 2)."""


# ---------------------------------------------------------------------------
# BENCHMARK.json
# ---------------------------------------------------------------------------

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                 "0123456789_.-")
UNIT_CHARS = NAME_CHARS | set("/%")
PATH_CHARS = NAME_CHARS | set("/")


def validate_spec(spec):
    """Problems with a BENCHMARK.json object; empty when it is valid."""
    problems = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        problems.append("keys must be exactly %s" % sorted(keys))
        return problems

    def name_ok(name):
        return (isinstance(name, str) and 0 < len(name) <= 64
                and name[0].isalnum() and set(name) <= NAME_CHARS)

    cmd = spec["command"]
    if (not isinstance(cmd, list) or not 1 <= len(cmd) <= 32
            or not all(isinstance(c, str) and len(c) <= 200 for c in cmd)):
        problems.append("command must be 1..32 strings of <= 200 chars")
    else:
        for c in cmd:
            if c.startswith("/") or ".." in c.split("/"):
                problems.append("command leaves the checkout: %r" % c)
    paths = spec["paths"]
    if not isinstance(paths, list) or not 1 <= len(paths) <= 16:
        problems.append("paths must list 1..16 directories")
    else:
        for p in paths:
            if (not isinstance(p, str) or not 0 < len(p) <= 200
                    or not set(p) <= PATH_CHARS or p.startswith("/")
                    or ".." in p.split("/")):
                problems.append("bad path %r" % (p,))
    rs = spec["run_seconds"]
    if not isinstance(rs, int) or isinstance(rs, bool) or not 1 <= rs <= 60:
        problems.append("run_seconds must be a whole number in 1..60")

    seen = set()

    def check_names(entries, what, lo, hi, keys):
        if not isinstance(entries, list) or not lo <= len(entries) <= hi:
            problems.append("%s must list %d..%d entries" % (what, lo, hi))
            return
        for e in entries:
            if not isinstance(e, dict) or set(e) != keys:
                problems.append("%s entry must have exactly %s"
                                % (what, sorted(keys)))
                continue
            if not name_ok(e["name"]) or e["name"] in seen:
                problems.append("bad or repeated name %r" % (e["name"],))
            seen.add(e["name"])
            if "unit" in e and (not isinstance(e["unit"], str)
                                or not 0 < len(e["unit"]) <= 16
                                or not set(e["unit"]) <= UNIT_CHARS):
                problems.append("bad unit %r" % (e["unit"],))
            if "better" in e and e["better"] not in ("higher", "lower"):
                problems.append("%s: better must be higher|lower"
                                % e["name"])
            if "why" in e and (not isinstance(e["why"], str)
                               or len(e["why"]) > 200 or "\n" in e["why"]):
                problems.append("%s: why must be one line <= 200 chars"
                                % e["name"])

    check_names(spec["workloads"], "workloads", 2, 8, {"name", "why"})
    check_names(spec["end_to_end"], "end_to_end", 1, 16,
                {"name", "unit", "better", "bound"})
    check_names(spec["per_layer"], "per_layer", 1, 128,
                {"name", "unit", "better"})
    if isinstance(spec["end_to_end"], list):
        for e in spec["end_to_end"]:
            b = e.get("bound") if isinstance(e, dict) else None
            if (not isinstance(b, (int, float)) or isinstance(b, bool)
                    or not 0 <= b <= 0.25):
                problems.append("%s: bound must be in 0..0.25"
                                % (e.get("name") if isinstance(e, dict)
                                   else e))
        setup = [e for e in spec["end_to_end"]
                 if isinstance(e, dict) and e.get("name") == "setup_s"]
        if not setup or setup[0].get("unit") != "s" or \
                setup[0].get("better") != "lower":
            problems.append("end_to_end needs setup_s in s, lower better")
    if len(json.dumps(spec)) > 64 * 1024:
        problems.append("BENCHMARK.json exceeds 64 KiB")
    return problems


def load_spec(path=SPEC_PATH):
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))
    problems = validate_spec(spec)
    if problems:
        raise BenchError("invalid %s: %s" % (path, "; ".join(problems)))
    return spec


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def summarize(values):
    """(median, q1, q3, n), quartiles as statistics.quantiles(n=4)."""
    values = list(values)
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, len(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, len(values)


def worse_by(base, new, better):
    """Share of |base| by which new is worse than base (< 0: better)."""
    if base == 0:
        return 0.0 if new == base else math.inf
    delta = (new - base) if better == "lower" else (base - new)
    return delta / abs(base)


def is_better(a, b, better):
    """True when value b beats value a."""
    return b < a if better == "lower" else b > a


# ---------------------------------------------------------------------------
# Build and run
# ---------------------------------------------------------------------------

def build(root):
    """Configure and build the nuat_bench of the checkout at @root into
    root/.bench_build (both no-ops when up to date); returns the binary
    path.  The build tree is fixed: the root's build/ holds the main
    project's CMake cache, which CMake refuses to share with another
    source directory."""
    build_dir = os.path.join(root, ".bench_build")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B",
              build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "nuat_bench",
              "-j", jobs]]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        except OSError as e:
            raise BenchError("cannot run %s: %s" % (cmd[0], e))
        if proc.returncode != 0:
            raise BenchError("build step failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "nuat_bench")


def run_bench(binary, workload, seed, seconds, trace, extra=()):
    """One nuat_bench process; returns its parsed JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + list(extra)
    # The whole benchmark command must end within 180 s per run.
    timeout = max(170, 8 * seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=sys.stderr, timeout=timeout,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out after %d s" % (workload, timeout))
    except OSError as e:
        raise BenchError("cannot run %s: %s" % (binary, e))
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError("%s (exit %d) printed no result"
                         % (workload, proc.returncode))
    if proc.returncode not in (0, 1):
        raise BenchError("%s exited %d" % (workload, proc.returncode))
    return record


def mode_metrics(spec, trace):
    return spec["per_layer"] if trace else spec["end_to_end"]


def missing_metrics(spec, record, trace):
    section = record.get("per_layer" if trace else "end_to_end", {})
    return [m["name"] for m in mode_metrics(spec, trace)
            if m["name"] not in section
            or section[m["name"]].get("unit") != m["unit"]
            or not isinstance(section[m["name"]].get("value"), (int, float))]


def result_line(spec, records, trace):
    """The final JSON line; metrics of one record, or medians by
    workload/metric over several."""
    out = {"correct": all(r["correct"] for r in records),
           "attempted": sum(r["attempted"] for r in records),
           "failed": sum(r["failed"] for r in records),
           "metrics": {}}
    key = "per_layer" if trace else "end_to_end"
    workloads = sorted({r["workload"] for r in records})
    for m in mode_metrics(spec, trace):
        for w in workloads:
            vals = [r[key][m["name"]]["value"] for r in records
                    if r["workload"] == w]
            name = m["name"] if len(records) == 1 else w + "/" + m["name"]
            out["metrics"][name] = {"value": statistics.median(vals),
                                    "unit": m["unit"]}
    return out


def print_record(spec, r):
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    print("== %s  seed %d  %s  (reps %d, attempted %d, failed %d)"
          % (r["workload"], r["seed"],
             "correct" if r["correct"] else "INCORRECT", r["reps"],
             r["attempted"], r["failed"]))
    for e in r["errors"]:
        print("   FAILED %s" % e)
    for key, title in (("end_to_end", "end to end"),
                       ("per_layer", "per layer (traced passes)")):
        if key not in r:
            continue
        print("   %-34s %-10s %14s %14s %14s %4s"
              % (title, "unit", "value", "q1", "q3", "n"))
        for name, s in r[key].items():
            note = ""
            if name in PAPER_GAINS:
                note = ("  (paper: %.1f; shape reference only)"
                        % PAPER_GAINS[name])
            elif name not in listed:
                note = "  (not in BENCHMARK.json)"
            print("   %-34s %-10s %14.6g %14.6g %14.6g %4d%s"
                  % (name, s["unit"], s["value"], s["q1"], s["q3"], s["n"],
                     note))


def save_records(path, set_name, records):
    data = {"schema": 1, "sets": {}}
    if os.path.exists(path):
        with open(path) as f:
            data = json.load(f)
    data["sets"].setdefault(set_name, []).extend(records)
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(data, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, path)


def checked_run(spec, binary, workload, seed, seconds, trace):
    """run_bench plus the check that every BENCHMARK.json metric of
    the mode was printed; prints the record's table."""
    trace_dir = os.path.join(os.path.dirname(binary), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    r = run_bench(binary, workload, seed, seconds, trace,
                   ["--trace-dir", trace_dir])
    missing = missing_metrics(spec, r, 0) + \
        (missing_metrics(spec, r, 1) if trace else [])
    if missing:
        raise BenchError("%s did not print %s"
                         % (workload, ", ".join(missing)))
    print_record(spec, r)
    sys.stdout.flush()
    return r


def workload_names(spec, only=None):
    names = [w["name"] for w in spec["workloads"]]
    if only and only not in names:
        raise BenchError("unknown workload %r (%s)"
                         % (only, ", ".join(names)))
    return [only] if only else names


def cmd_run(args):
    spec = load_spec()
    binary = build(ROOT)
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trace = 1 if args.trace is None else args.trace
    records = [checked_run(spec, binary, w, args.seed, seconds, trace)
               for w in workload_names(spec, args.workload)]
    line = result_line(spec, records, trace)
    print(json.dumps(line, sort_keys=False))
    return 0 if line["correct"] else 1


def cmd_pair(args):
    """PAIRS seeds of both checkouts, untraced, alternating which side
    runs first from seed to seed, so that a drift in host speed lands on
    both sides alike."""
    spec = load_spec()
    if os.path.exists(args.out):
        raise BenchError("%s exists; pair writes a new file" % args.out)
    roots = {"base": os.path.abspath(args.base),
             "new": os.path.abspath(args.new)}
    binaries = {side: build(root) for side, root in roots.items()}
    seconds = spec["run_seconds"]
    for i, seed in enumerate(range(args.seed, args.seed + PAIRS)):
        order = ("base", "new") if i % 2 == 0 else ("new", "base")
        for w in workload_names(spec):
            for side in order:
                print("-- %s" % side)
                r = checked_run(spec, binaries[side], w, seed, seconds, 0)
                save_records(args.out, side, [r])
    print("wrote sets base and new to %s; compare them with\n"
          "  python3 perfbench/benchmark.py compare %s:base %s:new"
          % (args.out, args.out, args.out))
    return 0


# ---------------------------------------------------------------------------
# Compare
# ---------------------------------------------------------------------------

def load_set(arg):
    """FILE or FILE:SET -> list of run records."""
    path, _, name = arg.partition(":")
    try:
        with open(path) as f:
            sets = json.load(f)["sets"]
    except (OSError, ValueError, KeyError) as e:
        raise BenchError("cannot read results %s: %s" % (path, e))
    if not name:
        if len(sets) != 1:
            raise BenchError("%s holds sets %s; name one as %s:SET"
                             % (path, sorted(sets), path))
        name = next(iter(sets))
    if name not in sets:
        raise BenchError("%s has no set %r" % (path, name))
    return sets[name]


def compare(spec, base, new, claim=None):
    """Rows of (workload, metric, verdict, detail) and overall pass."""
    rows = []
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        a_runs = [r for r in base if r["workload"] == w]
        b_runs = [r for r in new if r["workload"] == w]
        if not a_runs or not b_runs:
            rows.append((w, "-", "missing", "no runs on one side"))
            continue
        bad = [r["seed"] for r in b_runs if not r["correct"]]
        if bad:
            ok = False
            rows.append((w, "correct", "INCORRECT",
                         "new runs failed their checks: seeds %s" % bad[:5]))
        for m in spec["end_to_end"]:
            name, better, bound = m["name"], m["better"], m["bound"]
            a = [r["end_to_end"][name]["value"] for r in a_runs]
            b = [r["end_to_end"][name]["value"] for r in b_runs]
            if a_runs[0]["end_to_end"][name].get("exact"):
                a_by_seed = {r["seed"]: r["end_to_end"][name]["value"]
                             for r in a_runs}
                common = [r for r in b_runs if r["seed"] in a_by_seed]
                diff = [r["seed"] for r in common
                        if r["end_to_end"][name]["value"]
                        != a_by_seed[r["seed"]]]
                if not common:
                    rows.append((w, name, "n/a", "no common seeds"))
                elif diff:
                    ok = False
                    rows.append((w, name, "DIFFERS",
                                 "seeds %s" % diff[:5]))
                else:
                    rows.append((w, name, "equal",
                                 "%d seeds" % len(common)))
                continue
            ma, q1a, q3a, na = summarize(a)
            mb, q1b, q3b, nb = summarize(b)
            worse = worse_by(ma, mb, better)
            spread = (q3a - q1a) / abs(ma) if ma else math.inf
            detail = ("base %.6g [%.6g, %.6g] n=%d  new %.6g [%.6g, %.6g] "
                      "n=%d  change %+.1f%%  bound %.0f%%"
                      % (ma, q1a, q3a, na, mb, q1b, q3b, nb,
                         -100.0 * worse, 100.0 * bound))
            if spread > bound:
                if all(is_better(x, y, better) for x in a for y in b):
                    verdict = "better"
                else:
                    verdict = "unresolved"
            elif worse > bound:
                verdict = "WORSE"
                ok = False
            else:
                verdict = "ok"
            rows.append((w, name, verdict, detail))
    if claim:
        metric, _, w = claim.partition("@")
        m = next((x for x in spec["end_to_end"] if x["name"] == metric),
                 None)
        if m is None or not w:
            raise BenchError("--claim wants METRIC@WORKLOAD, got %r" % claim)
        a = {r["seed"]: r["end_to_end"][metric]["value"] for r in base
             if r["workload"] == w}
        b = {r["seed"]: r["end_to_end"][metric]["value"] for r in new
             if r["workload"] == w}
        pairs = [(a[s], b[s]) for s in sorted(a) if s in b]
        a, b = [x for x, _ in pairs], [y for _, y in pairs]
        wins = sum(1 for x, y in pairs if is_better(x, y, m["better"]))
        met = False
        detail = "%d pairs" % len(pairs)
        failed_a = sum(r["failed"] for r in base)
        failed_b = sum(r["failed"] for r in new)
        if failed_b > failed_a:
            detail = ("%d failed operations against the base's %d"
                      % (failed_b, failed_a))
        elif len(pairs) >= 10:
            ma, q1a, q3a, _ = summarize(a)
            mb = statistics.median(b)
            met = (wins >= 0.9 * len(pairs) and is_better(ma, mb, m["better"])
                   and abs(mb - ma) > q3a - q1a)
            detail = ("%d of %d pairs won; medians %.6g -> %.6g; base "
                      "spread %.6g" % (wins, len(pairs), ma, mb, q3a - q1a))
        else:
            detail += " of one seed (at least 10 needed)"
        ok = ok and met
        rows.append((w, metric, "CLAIM MET" if met else "CLAIM NOT MET",
                     detail))
    return rows, ok


def cmd_compare(args):
    spec = load_spec()
    rows, ok = compare(spec, load_set(args.base), load_set(args.new),
                       args.claim)
    for w, name, verdict, detail in rows:
        print("%-14s %-24s %-14s %s" % (w, name, verdict, detail))
    print(json.dumps({"ok": ok}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Smoke test and self-test
# ---------------------------------------------------------------------------

def cmd_smoke(args):
    """Every workload at reduced size, traced: exit 0, every metric
    printed, and nuat_bench's own checks (mirror == System::run, zero
    audit violations, serve conservation) all passed."""
    spec = load_spec()
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for w in [x["name"] for x in spec["workloads"]]:
            cmd = [args.binary, "--workload", w, "--seed", "3",
                   "--reps", "2", "--trace", "1", "--scale-pct", "10",
                   "--trace-dir", tmp]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  universal_newlines=True, timeout=600)
            try:
                r = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                failures.append("%s: no result (exit %d)\n%s"
                                % (w, proc.returncode, proc.stderr))
                continue
            problems = []
            if proc.returncode != 0 or not r["correct"]:
                problems.append("exit %d, errors %s"
                                % (proc.returncode, r["errors"]))
            missing = missing_metrics(spec, r, 0) + \
                missing_metrics(spec, r, 1)
            if missing:
                problems.append("missing metrics %s" % missing)
            if r["per_layer"]["verify.cmds"]["value"] <= 0:
                problems.append("traced pass audited no commands")
            # serve-det has no traced mirror, so it writes no spans.
            if w != "serve-det" and not os.path.exists(os.path.join(
                    tmp, "%s-seed3.trace.json" % w)):
                problems.append("no trace file")
            print("smoke %-14s %s" % (w, "ok" if not problems
                                      else "; ".join(problems)))
            failures += ["%s: %s" % (w, p) for p in problems]
    for f in failures:
        print("FAILED " + f)
    return 1 if failures else 0


def cmd_selftest(args):
    failures = []

    def check(cond, what):
        if not cond:
            failures.append(what)

    # Quartiles match statistics.quantiles, medians are medians.
    check(summarize([1, 2, 3, 4, 5]) == (3, 1.5, 4.5, 5), "summarize odd")
    check(summarize([7]) == (7, 7, 7, 1), "summarize single")
    check(worse_by(100, 110, "lower") == 0.1, "worse_by lower")
    check(worse_by(100, 90, "higher") == 0.1, "worse_by higher")
    check(worse_by(100, 120, "higher") == -0.2, "worse_by better")

    # The committed spec is valid; broken variants are refused.
    spec = load_spec()
    check(not validate_spec(spec), "BENCHMARK.json valid")
    broken = json.loads(json.dumps(spec))
    broken["end_to_end"] = [e for e in broken["end_to_end"]
                            if e["name"] != "setup_s"]
    check(validate_spec(broken), "missing setup_s refused")
    broken = json.loads(json.dumps(spec))
    broken["end_to_end"][0]["bound"] = 0.3
    check(validate_spec(broken), "bound above 0.25 refused")
    broken = json.loads(json.dumps(spec))
    broken["workloads"].append(dict(broken["workloads"][0]))
    check(validate_spec(broken), "repeated name refused")
    broken = json.loads(json.dumps(spec))
    broken["command"] = ["python3", "../x.py"]
    check(validate_spec(broken), "command leaving the checkout refused")

    # Compare verdicts on synthetic runs.
    mini = {"workloads": [{"name": "w", "why": "x"}],
            "end_to_end": [
                {"name": "rate", "unit": "1/s", "better": "higher",
                 "bound": 0.1},
                {"name": "lat", "unit": "cycles", "better": "lower",
                 "bound": 0.05}]}

    def runs(rates, lat=100.0, failed=0):
        return [{"workload": "w", "seed": s, "correct": not failed,
                 "failed": failed, "end_to_end": {
                     "rate": {"value": v, "exact": False},
                     "lat": {"value": lat, "exact": True}}}
                for s, v in enumerate(rates, 1)]

    base = runs([100, 101, 99, 100, 102, 98, 100, 101, 99, 100])
    same = runs([100, 99, 101, 100, 98, 102, 100, 99, 101, 100])
    slow = runs([80, 81, 79, 80, 82, 78, 80, 81, 79, 80])
    fast = runs([120, 121, 119, 120, 122, 118, 120, 121, 119, 120])
    noisy = runs([50, 150, 60, 140, 100, 70, 130, 100, 55, 145])

    def verdict(rows, metric):
        return [v for _, m, v, _ in rows if m == metric]

    rows, ok = compare(mini, base, same)
    check(ok and verdict(rows, "rate") == ["ok"], "same code passes")
    check(verdict(rows, "lat") == ["equal"], "exact metric equal")
    rows, ok = compare(mini, base, slow)
    check(not ok and verdict(rows, "rate") == ["WORSE"], "20% slower fails")
    rows, ok = compare(mini, noisy, same)
    check(verdict(rows, "rate") == ["unresolved"], "wide spread unresolved")
    rows, ok = compare(mini, base, runs([100] * 10, lat=101.0))
    check(not ok and verdict(rows, "lat") == ["DIFFERS"],
          "exact metric change fails")
    rows, ok = compare(mini, base, fast, claim="rate@w")
    check(ok and "CLAIM MET" in verdict(rows, "rate"), "claim met")
    rows, ok = compare(mini, base, same, claim="rate@w")
    check(not ok and "CLAIM NOT MET" in verdict(rows, "rate"),
          "claim within noise not met")
    rows, ok = compare(mini, base[:5], fast[:5], claim="rate@w")
    check(not ok, "claim needs 10 pairs")
    broken = runs([100] * 10)
    broken[3]["correct"] = False
    rows, ok = compare(mini, base, broken)
    check(not ok and verdict(rows, "correct") == ["INCORRECT"],
          "a new run that failed its checks fails the comparison")
    rows, ok = compare(mini, base, runs([120] * 10, failed=1),
                       claim="rate@w")
    check(not ok and "CLAIM NOT MET" in verdict(rows, "rate"),
          "claim with more failed operations than the base not met")

    # nuat_bench prints every metric BENCHMARK.json names, with the
    # same unit, and rejects malformed input with exit 64.
    if args.binary:
        listed = json.loads(subprocess.run(
            [args.binary, "--list"], stdout=subprocess.PIPE,
            universal_newlines=True, check=True).stdout)
        check([w["name"] for w in spec["workloads"]] == listed["workloads"],
              "workload list matches nuat_bench")
        for section in ("end_to_end", "per_layer"):
            units = {m["name"]: m["unit"] for m in listed[section]}
            for m in spec[section]:
                check(units.get(m["name"]) == m["unit"],
                      "nuat_bench prints %s in %s" % (m["name"], m["unit"]))
        for bad in (["--workload", "paper-grid", "--seed", "12abc"],
                    ["--workload", "paper-grid", "--seed", "abc"],
                    ["--workload", "paper-grid", "--seed", "-1"],
                    ["--workload", "paper-grid", "--seed", ""],
                    ["--workload", "paper-grid", "--seconds",
                     "99999999999999999999999"],
                    ["--workload", "paper-grid", "--trace", "2"],
                    ["--workload", "nope"],
                    ["--workload", "paper-grid", "--bogus"]):
            proc = subprocess.run([args.binary] + bad,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE,
                                  universal_newlines=True)
            check(proc.returncode == 64 and not proc.stdout
                  and proc.stderr.count("\n") == 1,
                  "nuat_bench rejects %s with one usage line" % bad)

    for f in failures:
        print("FAILED " + f)
    print("selftest: %d failures" % len(failures))
    return 1 if failures else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)

    r = sub.add_parser("run", help="build and run the benchmark")
    r.add_argument("--workload", help="one workload (default: all)")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=int,
                   help="measured seconds per run (default: run_seconds)")
    r.add_argument("--trace", type=int, choices=(0, 1),
                   help="0: end-to-end only; 1 (default): also per layer")
    r.set_defaults(func=cmd_run)

    pr = sub.add_parser("pair", help="run two checkouts, alternating")
    pr.add_argument("base", help="root of the parent commit's checkout")
    pr.add_argument("new", help="root of the change's checkout")
    pr.add_argument("--out", required=True, help="new results file")
    pr.add_argument("--seed", type=int, default=1,
                    help="first of the %d seeds (default 1)" % PAIRS)
    pr.set_defaults(func=cmd_pair)

    c = sub.add_parser("compare", help="compare two result sets")
    c.add_argument("base", help="FILE:SET of the parent commit")
    c.add_argument("new", help="FILE:SET of the change")
    c.add_argument("--claim", help="METRIC@WORKLOAD the change claims")
    c.set_defaults(func=cmd_compare)

    s = sub.add_parser("smoke", help="reduced-size run of every workload")
    s.add_argument("--binary", required=True)
    s.set_defaults(func=cmd_smoke)

    t = sub.add_parser("selftest", help="test this script's logic")
    t.add_argument("--binary", help="also check this nuat_bench")
    t.set_defaults(func=cmd_selftest)

    args = p.parse_args(argv)
    try:
        return args.func(args)
    except BenchError as e:
        print("benchmark: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
