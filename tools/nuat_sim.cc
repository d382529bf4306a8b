/**
 * @file
 * nuat_sim — the command-line front end to the simulator.
 *
 *   nuat_sim [options]       (usage() below lists every flag)
 *
 * Exit codes: 0 ok, 2 audit violations, 3 a sweep entry failed (the
 * rest of the sweep still ran), 1 usage/fatal errors.
 */

#include <cstdio>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/logging.hh"
#include "dram/dram_spec.hh"
#include "fault/fault_profile.hh"
#include "sim/report.hh"
#include "sim/runner.hh"
#include "trace/workload_profile.hh"
#include "verify/trace_capture.hh"

using namespace nuat;
using nuat::cli::parseCount;
using nuat::cli::splitCommas;

namespace {

/** A garbage flag value is a usage error (1). */
constexpr cli::Tool kTool{"nuat_sim", 1};

void
printCsv(const RunResult &r, std::uint64_t seed)
{
    std::printf("%s,%s,%llu,%.3f,%.3f,%.3f,%llu,%.4f,%llu,%llu,%.1f\n",
                r.schedulerName.c_str(),
                workloadLabel(r.workloads).c_str(),
                static_cast<unsigned long long>(seed),
                r.avgReadLatency(), r.readLatencyPercentile(0.95),
                r.readLatencyPercentile(0.99),
                static_cast<unsigned long long>(r.executionTime()),
                r.hitRateEq3,
                static_cast<unsigned long long>(r.dev.acts),
                static_cast<unsigned long long>(r.dev.refreshes),
                r.energy.total() / 1e6);
}

void
usage()
{
    std::printf(
        "nuat_sim — NUAT memory-controller simulator\n"
        "  --workloads a,b,c     one per core (default ferret)\n"
        "  --scheduler s         nuat | fcfs | frfcfs-open | "
        "frfcfs-close | frfcfs-adaptive (default nuat)\n"
        "  --dram-gen g          ddr3-1600 | ddr4-2400 | ddr5-4800: "
        "clock, geometry, timing, refresh mode (default ddr3-1600)\n"
        "  --refresh-mode m      all-bank | per-bank (overrides the "
        "preset)\n"
        "  --refresh-policy p    inorder | darp | sarp (per-bank only; "
        "default inorder)\n"
        "  --compare             run all five schedulers side by side\n"
        "  --pb N                NUAT PB count, 1..8 (default 5)\n"
        "  --channels N          memory channels (default 1)\n"
        "  --ops N               memory ops per core (default 50000)\n"
        "  --seed N              trace RNG seed (default 1)\n"
        "  --gap-scale F         scale compute gaps (default 1.0)\n"
        "  --no-ppm              disable the PPM page-mode decision "
        "maker\n"
        "  --paper-pure          disable the starvation escape\n"
        "  --threads N           workers for --compare (0 = all cores, "
        "default 1; results are identical)\n"
        "  --csv                 one machine-readable line per run\n"
        "  --audit               shadow protocol auditor (exit 2 on "
        "violations)\n"
        "  --dump-trace FILE     tee the issued-command stream to FILE\n"
        "  --replay-trace FILE   re-audit a captured trace, no "
        "simulation (exit 2 on violations)\n"
        "  --metrics-out FILE    interval metric samples as JSON Lines; "
        "--compare suffixes FILE per scheduler (.nuat, .fcfs, ...)\n"
        "  --metrics-interval N  cycles between samples (default "
        "10000)\n"
        "  --trace-events FILE   chrome://tracing counter events\n"
        "  --fault-profile P     inject faults: weak-cells | "
        "thermal-spike | vrt | refresh-storm | stress | FILE\n"
        "  --no-degrade          keep NUAT's guardband ladder off under "
        "--fault-profile (unsafe on purpose)\n"
        "exit: 0 ok, 2 audit violations, 3 a sweep entry failed, 1 "
        "usage/fatal errors\n");
}

/** Print a fault-injected run's fault/guardband summary. */
void
reportFaults(const RunResult &r)
{
    if (!r.faultsEnabled)
        return;
    std::printf("faults: profile %s (degrade %s): %llu weak rows, "
                "%llu VRT rows, %llu REFs dropped, %llu delayed, "
                "%llu margin violations\n",
                r.faultProfileName.c_str(),
                r.degradeEnabled ? "on" : "OFF",
                static_cast<unsigned long long>(r.faultWeakRows),
                static_cast<unsigned long long>(r.faultVrtRows),
                static_cast<unsigned long long>(r.faultRefsDropped),
                static_cast<unsigned long long>(r.faultRefsDelayed),
                static_cast<unsigned long long>(r.dev.marginViolations));
    if (r.degradeEnabled) {
        std::printf("guardband: %llu probe violations, %llu "
                    "quarantines, %llu releases, %llu widen steps, "
                    "%llu ease steps, %llu conservative entries, "
                    "%llu rows quarantined at end\n",
                    static_cast<unsigned long long>(
                        r.guardProbeViolations),
                    static_cast<unsigned long long>(r.guardQuarantines),
                    static_cast<unsigned long long>(r.guardReleases),
                    static_cast<unsigned long long>(r.guardWidenSteps),
                    static_cast<unsigned long long>(r.guardEaseSteps),
                    static_cast<unsigned long long>(
                        r.guardConservativeEntries),
                    static_cast<unsigned long long>(
                        r.guardQuarantinedAtEnd));
    }
}

/** Print an audited run's verdict; true when violations were found. */
bool
reportAudit(const RunResult &r)
{
    if (!r.audited)
        return false;
    std::printf("audit: %llu commands checked, %llu violations\n",
                static_cast<unsigned long long>(r.auditCommandsChecked),
                static_cast<unsigned long long>(r.auditViolations));
    for (const auto &msg : r.auditMessages)
        std::printf("audit:   %s\n", msg.c_str());
    return r.auditViolations != 0;
}

/** --replay-trace: re-audit a captured command trace, no simulator.
 *  A header the auditor cannot model fails the replay like a
 *  malformed line: one diagnostic, exit 1. */
int
replayTrace(const std::string &path)
{
    TraceReplayResult res;
    setPanicThrows(true);
    try {
        res = replayCommandTrace(path);
    } catch (const std::exception &e) {
        res.error = e.what();
    }
    setPanicThrows(false);
    if (!res.parsed)
        nuat_fatal("replay failed: %s", res.error.c_str());
    std::printf("replayed %llu commands over %u channel(s): "
                "%llu violations\n",
                static_cast<unsigned long long>(
                    res.report.commandsChecked),
                res.channels,
                static_cast<unsigned long long>(res.report.violations));
    for (const auto &msg : res.report.messages)
        std::printf("audit:   %s\n", msg.c_str());
    return res.report.violations ? 2 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentConfig cfg;
    cfg.workloads = {"ferret"};
    cfg.memOpsPerCore = 50000;
    bool compare = false;
    bool csv = false;
    unsigned threads = 1;
    std::string replay_path;
    const DramSpec *spec = nullptr;
    bool have_refresh_mode = false;
    RefreshMode refresh_mode = RefreshMode::kAllBank;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                nuat_fatal("%s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--workloads") {
            cfg.workloads = splitCommas(value());
        } else if (arg == "--scheduler") {
            const char *name = value();
            if (!parseSchedulerKind(name, &cfg.scheduler)) {
                nuat_fatal("unknown scheduler '%s' (%s)", name,
                           cli::kSchedulerNames);
            }
        } else if (arg == "--dram-gen") {
            const char *name = value();
            spec = DramSpec::byName(name);
            if (spec == nullptr) {
                nuat_fatal("unknown DRAM generation '%s' (ddr3-1600 | "
                           "ddr4-2400 | ddr5-4800)",
                           name);
            }
        } else if (arg == "--refresh-mode") {
            const std::string mode = value();
            if (mode == "all-bank") {
                refresh_mode = RefreshMode::kAllBank;
            } else if (mode == "per-bank") {
                refresh_mode = RefreshMode::kPerBank;
            } else {
                nuat_fatal("unknown refresh mode '%s' (all-bank | "
                           "per-bank)",
                           mode.c_str());
            }
            have_refresh_mode = true;
        } else if (arg == "--refresh-policy") {
            const char *name = value();
            if (!parseRefreshPolicy(name, cfg.controller.refreshPolicy)) {
                nuat_fatal("unknown refresh policy '%s' (inorder | "
                           "darp | sarp)",
                           name);
            }
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--pb") {
            cfg.numPb = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--channels") {
            cfg.geometry.channels = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--ops") {
            cfg.memOpsPerCore = parseCount(kTool, arg, value());
        } else if (arg == "--seed") {
            cfg.seed = parseCount(kTool, arg, value());
        } else if (arg == "--gap-scale") {
            cfg.gapScale = cli::parseReal(kTool, arg, value());
        } else if (arg == "--no-ppm") {
            cfg.ppmEnabled = false;
        } else if (arg == "--paper-pure") {
            cfg.nuatStarvationLimit = 0;
        } else if (arg == "--threads") {
            threads = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--audit") {
            cfg.audit = true;
        } else if (arg == "--dump-trace") {
            cfg.dumpTracePath = value();
        } else if (arg == "--replay-trace") {
            replay_path = value();
        } else if (arg == "--metrics-out") {
            cfg.metricsOutPath = value();
        } else if (arg == "--metrics-interval") {
            cfg.metricsInterval = parseCount(kTool, arg, value());
        } else if (arg == "--trace-events") {
            cfg.traceEventsPath = value();
        } else if (arg == "--fault-profile") {
            cfg.faultProfile = value();
        } else if (arg == "--no-degrade") {
            cfg.faultDegrade = false;
        } else if (arg == "--csv") {
            csv = true;
        } else if (arg == "--help") {
            usage();
            return 0;
        } else {
            usage();
            nuat_fatal("unknown option '%s'", arg.c_str());
        }
    }

    // The preset replaces geometry + timing wholesale; keep the only
    // CLI geometry knob (--channels) regardless of flag order.
    if (spec != nullptr) {
        const unsigned channels = cfg.geometry.channels;
        cfg.applyDramGen(spec->generation);
        cfg.geometry.channels = channels;
    }
    if (have_refresh_mode)
        cfg.timing.refreshMode = refresh_mode;

    if (!replay_path.empty())
        return replayTrace(replay_path);

    // Reject a bad configuration before anything runs: one diagnostic
    // line and exit 1, not a panic's abort.
    setPanicThrows(true);
    try {
        cfg.validate();
        for (const std::string &w : cfg.workloads)
            (void)WorkloadProfile::byName(w);
        if (cfg.faultsEnabled())
            (void)resolveFaultProfile(cfg.faultProfile);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nuat_sim: %s\n", e.what());
        return 1;
    }
    setPanicThrows(false);

    if (csv) {
        std::printf("scheduler,workloads,seed,avg_lat_cyc,p95_lat_cyc,"
                    "p99_lat_cyc,exec_cpu_cyc,hit_rate,acts,refreshes,"
                    "energy_mj\n");
    } else {
        std::printf("%s\n", describeConfig(cfg).c_str());
    }

    if (compare) {
        // A failing entry (say, an output file that cannot be opened)
        // throws instead of exiting, so the rest of the sweep still
        // runs and the failure surfaces as exit 3.
        setPanicThrows(true);
        const auto results = runSchedulerSweep(
            cfg,
            {SchedulerKind::kFcfs, SchedulerKind::kFrFcfsOpen,
             SchedulerKind::kFrFcfsClose, SchedulerKind::kFrFcfsAdaptive,
             SchedulerKind::kNuat},
            threads);
        setPanicThrows(false);
        // A failed sweep entry is reported after the whole sweep ran;
        // its slot carries the error text instead of results.
        bool failed = false;
        std::vector<RunResult> ok;
        for (const auto &r : results) {
            if (r.error.empty()) {
                ok.push_back(r);
                continue;
            }
            failed = true;
            std::fprintf(stderr, "error: %s run failed: %s\n",
                         r.schedulerName.c_str(), r.error.c_str());
        }
        if (csv) {
            for (const auto &r : ok)
                printCsv(r, cfg.seed);
        } else if (!ok.empty()) {
            std::printf("%s", compareRuns(ok).c_str());
        }
        bool bad = false;
        for (const auto &r : results) {
            reportFaults(r);
            bad = reportAudit(r) || bad;
        }
        if (failed)
            return 3;
        return bad ? 2 : 0;
    }

    const RunResult r = runExperiment(cfg);
    if (csv) {
        printCsv(r, cfg.seed);
    } else {
        std::printf("%s", summarizeRun(r).c_str());
        std::printf("p95 / p99 read latency: %.0f / %.0f cycles\n",
                    r.readLatencyPercentile(0.95),
                    r.readLatencyPercentile(0.99));
        std::printf("channel energy: %.2f mJ (ACT/PRE %.2f, RD %.2f, "
                    "WR %.2f, REF %.2f, background %.2f; derating "
                    "saved %.3f)\n",
                    r.energy.total() / 1e6, r.energy.actPre / 1e6,
                    r.energy.read / 1e6, r.energy.write / 1e6,
                    r.energy.refresh / 1e6, r.energy.background / 1e6,
                    r.energy.deratingSavings / 1e6);
        if (r.metricsEnabled) {
            std::printf("metrics: %llu samples, one every %llu "
                        "cycles\n",
                        static_cast<unsigned long long>(
                            r.metricsSamples),
                        static_cast<unsigned long long>(
                            r.metricsIntervalCycles));
        }
        reportFaults(r);
    }
    return reportAudit(r) ? 2 : 0;
}
