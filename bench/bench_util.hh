/**
 * @file
 * Shared helpers for the figure-reproduction benches.
 *
 * Environment knobs:
 *  - NUAT_BENCH_OPS:     memory operations per core (default per bench)
 *  - NUAT_BENCH_FULL=1:  paper-scale runs (all 32 combos, longer traces)
 *  - NUAT_BENCH_THREADS: worker threads (same as --threads N)
 *  - NUAT_BENCH_AUDIT=1: attach the shadow protocol auditor to every
 *                        run; the bench exits 2 on any violation
 *  - NUAT_BENCH_METRICS=DIR: stream each run's interval metric samples
 *                        (JSON Lines, see OBSERVABILITY.md) into
 *                        DIR/<bench>-<run#>.jsonl
 */

#ifndef NUAT_BENCH_BENCH_UTIL_HH
#define NUAT_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/experiment_config.hh"
#include "sim/parallel_runner.hh"
#include "trace/workload_profile.hh"

namespace nuat::bench {

/** True when NUAT_BENCH_FULL=1 requests paper-scale runs. */
inline bool
fullScale()
{
    const char *v = std::getenv("NUAT_BENCH_FULL");
    return v && v[0] == '1';
}

/**
 * Strict unsigned parse of @p value, which came from @p source (an
 * environment variable or a flag).  Anything but a plain decimal
 * number is a usage error: one diagnostic line, exit 64.
 */
inline std::uint64_t
parseCount(const char *source, const char *value)
{
    char *end = nullptr;
    const unsigned long long n = std::strtoull(value, &end, 10);
    if (end == value || *end != '\0' || value[0] == '-') {
        std::fprintf(stderr, "%s needs an unsigned integer, got '%s'\n",
                     source, value);
        std::exit(64);
    }
    return n;
}

/** Memory ops per core: env override, else full/quick default. */
inline std::uint64_t
opsPerCore(std::uint64_t quick_default, std::uint64_t full_default)
{
    if (const char *v = std::getenv("NUAT_BENCH_OPS"))
        return parseCount("NUAT_BENCH_OPS", v);
    return fullScale() ? full_default : quick_default;
}

/** True when NUAT_BENCH_AUDIT=1 requests audited runs. */
inline bool
auditEnabled()
{
    const char *v = std::getenv("NUAT_BENCH_AUDIT");
    return v && v[0] == '1';
}

/**
 * Audit verdict over a finished batch: prints a summary when auditing
 * was on and returns the bench's exit code (2 on any violation, else
 * 0), so `return bench::auditVerdict(all);` is the whole integration.
 */
inline int
auditVerdict(const std::vector<RunResult> &results)
{
    if (!auditEnabled())
        return 0;
    std::uint64_t commands = 0, violations = 0;
    for (const auto &r : results) {
        commands += r.auditCommandsChecked;
        violations += r.auditViolations;
        for (const auto &msg : r.auditMessages)
            std::printf("audit:   %s\n", msg.c_str());
    }
    std::printf("[audit] %zu runs, %llu commands checked, %llu "
                "violations\n",
                results.size(),
                static_cast<unsigned long long>(commands),
                static_cast<unsigned long long>(violations));
    return violations ? 2 : 0;
}

/**
 * NUAT_BENCH_METRICS=DIR: give every run in @p grid its own metric
 * stream at DIR/<bench>-<run#>.jsonl.  No-op when the variable is
 * unset, so the default bench run stays metrics-free (and therefore
 * identical to the committed baselines).
 */
inline void
applyMetricsEnv(std::vector<ExperimentConfig> &grid, const char *bench)
{
    const char *dir = std::getenv("NUAT_BENCH_METRICS");
    if (!dir || !dir[0])
        return;
    for (std::size_t i = 0; i < grid.size(); ++i) {
        grid[i].metricsOutPath = std::string(dir) + "/" + bench + "-" +
                                 std::to_string(i) + ".jsonl";
    }
}

/** The paper's Fig. 18/20 schedulers, in grid order. */
inline constexpr SchedulerKind kPaperKinds[] = {
    SchedulerKind::kFrFcfsOpen, SchedulerKind::kFrFcfsClose,
    SchedulerKind::kNuat};

/**
 * The paper's single-core grid: every workload profile x kPaperKinds,
 * profile-major, at @p ops memory operations per core, with the audit
 * and metrics environment knobs applied (metric files named after
 * @p bench).  Row w's runs start at index w * std::size(kPaperKinds).
 */
inline std::vector<ExperimentConfig>
paperGrid(std::uint64_t ops, const char *bench)
{
    std::vector<ExperimentConfig> grid;
    for (const std::string &name : WorkloadProfile::allNames()) {
        ExperimentConfig cfg;
        cfg.workloads = {name};
        cfg.memOpsPerCore = ops;
        cfg.audit = auditEnabled();
        for (const SchedulerKind kind : kPaperKinds) {
            cfg.scheduler = kind;
            grid.push_back(cfg);
        }
    }
    applyMetricsEnv(grid, bench);
    return grid;
}

/** Mean of per-core finish times [CPU cycles]. */
inline double
avgCoreFinish(const RunResult &r)
{
    double sum = 0.0;
    for (const auto c : r.coreFinish)
        sum += static_cast<double>(c);
    if (r.coreFinish.empty())
        return 0.0;
    return sum / static_cast<double>(r.coreFinish.size());
}

/** Print the standard bench header. */
inline void
header(const char *figure, const char *what)
{
    std::printf("=== %s — %s ===\n", figure, what);
    std::printf("(NUAT reproduction; synthetic MSC-style workloads; "
                "shapes comparable to the paper, absolute numbers are "
                "not — see EXPERIMENTS.md)\n\n");
}

/**
 * Worker-thread count: `--threads N` from the command line, else the
 * NUAT_BENCH_THREADS environment variable, else 1 (serial).  0 means
 * one worker per hardware thread.  Results are byte-identical for any
 * value (see runExperimentsParallel).
 */
inline unsigned
threadsFromArgs(int argc, char **argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--threads") == 0)
            return static_cast<unsigned>(
                parseCount("--threads", argv[i + 1]));
    if (const char *v = std::getenv("NUAT_BENCH_THREADS"))
        return static_cast<unsigned>(parseCount("NUAT_BENCH_THREADS", v));
    return 1;
}

/**
 * Wall-clock + simulated-throughput reporter.  Construct at the top of
 * main(), feed it every RunResult, and report() at the end; it prints
 * a human-readable line plus one machine-readable JSON line.
 */
class ThroughputReport
{
  public:
    explicit ThroughputReport(const char *bench, unsigned threads)
        : bench_(bench), threads_(threads),
          start_(std::chrono::steady_clock::now())
    {
    }

    void add(const RunResult &r)
    {
        simCycles_ += r.memCycles;
        ++runs_;
    }

    void
    add(const std::vector<RunResult> &rs)
    {
        for (const auto &r : rs)
            add(r);
    }

    void
    report() const
    {
        const double wall =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        const double mcyc = static_cast<double>(simCycles_) / 1e6;
        const double rate = wall > 0.0 ? mcyc / wall : 0.0;
        std::printf("\n[throughput] %s: %u runs, wall %.2f s, "
                    "simulated %.1f Mcycles, %.1f Mcycles/s, "
                    "threads=%u\n",
                    bench_, runs_, wall, mcyc, rate, threads_);
        std::printf("{\"bench\":\"%s\",\"runs\":%u,\"wall_s\":%.3f,"
                    "\"sim_mcycles\":%.3f,\"mcycles_per_s\":%.1f,"
                    "\"threads\":%u}\n",
                    bench_, runs_, wall, mcyc, rate, threads_);
    }

  private:
    const char *bench_;
    unsigned threads_;
    unsigned runs_ = 0;
    std::uint64_t simCycles_ = 0;
    std::chrono::steady_clock::time_point start_;
};

} // namespace nuat::bench

#endif // NUAT_BENCH_BENCH_UTIL_HH
