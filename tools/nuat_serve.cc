/**
 * @file
 * nuat_serve — the throughput-service front end to the simulator.
 *
 *   nuat_serve [options]     (usage() below lists every flag)
 *
 * Exit codes: 0 ok, 1 runtime failure (wedged ring, watchdog
 * exhausted, cycle cap, broken conservation), 2 audit violations,
 * 64 bad command line (EX_USAGE), 65 malformed workload or chaos
 * profile (EX_DATAERR, with a one-line file:line diagnostic).
 *
 * Wall-clock timing lives here, not in the serve runtime:
 * src/sim must stay free of std::chrono (nuat-lint `nondeterminism`).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "cli_args.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/result_json.hh"
#include "sim/serve_runtime.hh"
#include "trace/workload_profile.hh"

using namespace nuat;
using nuat::cli::parseCount;
using nuat::cli::splitCommas;

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRuntime = 1;
constexpr int kExitAudit = 2;
constexpr int kExitUsage = 64;    //!< EX_USAGE: bad command line
constexpr int kExitBadInput = 65; //!< EX_DATAERR: malformed input

/** A garbage flag value is a usage error (64). */
constexpr cli::Tool kTool{"nuat_serve", kExitUsage};

void
usage()
{
    std::printf(
        "nuat_serve — sharded request-level throughput runtime\n"
        "  --shards N          channel shards, power of two (default "
        "2)\n"
        "  --producers N       trace producer threads (default 2)\n"
        "  --requests N        requests per producer (default 20000)\n"
        "  --queue-capacity N  slots per ingest ring (default 1024)\n"
        "  --ingest-batch N    ring moves per shard cycle (default "
        "64)\n"
        "  --workloads a,b,c   producer profiles, cycled (default "
        "ferret)\n"
        "  --scheduler s       nuat | fcfs | frfcfs-open | "
        "frfcfs-close | frfcfs-adaptive (default nuat)\n"
        "  --pb N              NUAT PB count, 1..8 (default 5)\n"
        "  --seed N            stream RNG seed (default 1)\n"
        "  --no-ppm            disable the PPM page-mode decision maker\n"
        "  --admission p       block | bounded | shed (default "
        "block)\n"
        "  --deadline N[,N,N]  per-class dispatch deadline [shard "
        "cycles]; one value = every class, 0 disables\n"
        "  --retry-rounds N    bounded-retry push budget (default "
        "32)\n"
        "  --max-push-rounds N block-policy wedge threshold (default "
        "65536)\n"
        "  --admit-capacity N  admitted-stage depth (default 256)\n"
        "  --chaos-profile p   burst-storm | poison | shard-stall | "
        "storm-stall | key=value file\n"
        "  --deterministic     single-threaded cooperative execution: "
        "byte-identical counters per (profile, seed)\n"
        "  --no-watchdog       disable shard stall detection/recovery\n"
        "  --watchdog-polls N  frozen polls before a recovery (default "
        "4)\n"
        "  --metrics-out f     serve.* metrics as one JSONL record\n"
        "  --audit             shadow auditor per shard (exit 2 on "
        "violations)\n"
        "  --json              one machine-readable summary line\n"
        "exit: 0 ok, 1 runtime failure, 2 audit violations, 64 bad "
        "CLI, 65 malformed input\n");
}

} // namespace

int
main(int argc, char **argv)
{
    ServeConfig cfg;
    cfg.experiment.workloads = {"ferret"};
    bool json = false;
    std::string chaosArg;
    std::string metricsOut;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "nuat_serve: %s needs a value\n",
                             arg.c_str());
                std::exit(kExitUsage);
            }
            return argv[++i];
        };
        if (arg == "--shards") {
            cfg.shards = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--producers") {
            cfg.producers = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--requests") {
            cfg.requestsPerProducer = parseCount(kTool, arg, value());
        } else if (arg == "--queue-capacity") {
            cfg.queueCapacity = parseCount(kTool, arg, value());
        } else if (arg == "--ingest-batch") {
            cfg.ingestBatch = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--workloads") {
            cfg.experiment.workloads = splitCommas(value());
        } else if (arg == "--scheduler") {
            const char *name = value();
            if (!parseSchedulerKind(name, &cfg.experiment.scheduler)) {
                std::fprintf(stderr,
                             "nuat_serve: unknown scheduler '%s' (%s)\n",
                             name, cli::kSchedulerNames);
                return kExitUsage;
            }
        } else if (arg == "--pb") {
            cfg.experiment.numPb = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--seed") {
            cfg.experiment.seed = parseCount(kTool, arg, value());
        } else if (arg == "--no-ppm") {
            cfg.experiment.ppmEnabled = false;
        } else if (arg == "--admission") {
            const std::string name = value();
            if (!parseAdmissionPolicy(name, &cfg.admission)) {
                std::fprintf(stderr,
                             "nuat_serve: unknown admission policy "
                             "'%s' (block | bounded | shed)\n",
                             name.c_str());
                return kExitUsage;
            }
        } else if (arg == "--deadline") {
            const std::vector<std::string> vals =
                splitCommas(value());
            if (vals.size() == 1) {
                const Cycle d = parseCount(kTool, arg, vals[0].c_str());
                for (auto &slot : cfg.deadlineCycles)
                    slot = d;
            } else if (vals.size() == kServeClasses) {
                for (unsigned k = 0; k < kServeClasses; ++k)
                    cfg.deadlineCycles[k] =
                        parseCount(kTool, arg, vals[k].c_str());
            } else {
                std::fprintf(stderr,
                             "nuat_serve: --deadline takes 1 or %u "
                             "comma-separated values\n",
                             kServeClasses);
                return kExitUsage;
            }
        } else if (arg == "--retry-rounds") {
            cfg.retryPushRounds = parseCount(kTool, arg, value());
        } else if (arg == "--max-push-rounds") {
            cfg.blockPushRounds = parseCount(kTool, arg, value());
        } else if (arg == "--admit-capacity") {
            cfg.admitCapacity = parseCount(kTool, arg, value());
        } else if (arg == "--chaos-profile") {
            chaosArg = value();
        } else if (arg == "--deterministic") {
            cfg.deterministic = true;
        } else if (arg == "--no-watchdog") {
            cfg.watchdog = false;
        } else if (arg == "--watchdog-polls") {
            cfg.watchdogStallPolls = parseCount<unsigned>(kTool, arg, value());
        } else if (arg == "--metrics-out") {
            metricsOut = value();
        } else if (arg == "--audit") {
            cfg.experiment.audit = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--help") {
            usage();
            return kExitOk;
        } else {
            usage();
            std::fprintf(stderr, "nuat_serve: unknown option '%s'\n",
                         arg.c_str());
            return kExitUsage;
        }
    }

    // Input validation under throwing handlers: the parsers' fatal
    // diagnostics (which carry file:line for profile files) become
    // exceptions we can map onto distinct exit codes.
    setPanicThrows(true);
    if (!chaosArg.empty()) {
        try {
            cfg.chaos = resolveChaosProfile(chaosArg);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "nuat_serve: %s\n", e.what());
            return kExitBadInput;
        }
    }
    for (const std::string &w : cfg.experiment.workloads) {
        try {
            (void)WorkloadProfile::byName(w);
        } catch (const std::exception &e) {
            std::fprintf(stderr, "nuat_serve: %s\n", e.what());
            return kExitBadInput;
        }
    }
    try {
        cfg.validate();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "nuat_serve: %s\n", e.what());
        return kExitUsage;
    }
    setPanicThrows(false);

    const auto t0 = std::chrono::steady_clock::now();
    const ServeResult res = runServe(cfg);
    const auto t1 = std::chrono::steady_clock::now();
    const double secs =
        std::chrono::duration<double>(t1 - t0).count();
    const double rps =
        secs > 0.0 ? static_cast<double>(res.requestsRetired) / secs
                   : 0.0;

    if (!metricsOut.empty()) {
        std::ofstream out(metricsOut);
        if (!out) {
            std::fprintf(stderr,
                         "nuat_serve: cannot write metrics to '%s'\n",
                         metricsOut.c_str());
            return kExitRuntime;
        }
        MetricRegistry registry;
        publishServeMetrics(res, registry);
        const Cycle at =
            res.maxShardCycles ? res.maxShardCycles : 1;
        IntervalSampler sampler(registry, at, &out);
        sampler.finish(at);
    }

    auto u = [](std::uint64_t v) {
        return static_cast<unsigned long long>(v);
    };
    if (json) {
        // The canonical record minus its closing brace, then the two
        // wall-clock fields only this tool can measure.
        std::string line = serveResultToJson(res);
        line.pop_back();
        std::printf("%s,\"requests_per_s\":%.1f,\"wall_s\":%.4f}\n",
                    line.c_str(), rps, secs);
    } else {
        std::printf("serve: %u shard(s), %u producer(s), %llu requests "
                    "ingested, %llu retired (%llu reads, %llu writes)\n",
                    res.shards, res.producers, u(res.requestsIngested),
                    u(res.requestsRetired), u(res.readsRetired),
                    u(res.writesRetired));
        std::printf("serve: %.0f requests/s over %.3f s wall; avg read "
                    "latency %.1f cycles; %llu backpressure yields\n",
                    rps, secs, res.avgReadLatency,
                    u(res.backpressureYields));
        std::printf("serve: shard clocks max %llu / total %llu cycles\n",
                    u(res.maxShardCycles), u(res.totalShardCycles));
        if (res.shedTotal() || res.poisonedInjected || cfg.chaos.any()) {
            std::printf("serve: %llu produced, shed %llu (admission "
                        "%llu, timeout %llu, poison %llu)\n",
                        u(res.requestsProduced), u(res.shedTotal()),
                        u(res.shedAdmission), u(res.shedTimeout),
                        u(res.shedPoison));
            for (unsigned k = 0; k < kServeClasses; ++k) {
                const ServeClassStats &c = res.classes[k];
                std::printf("serve:   class %u: %llu produced, %llu "
                            "retired, %llu shed\n",
                            k, u(c.produced), u(c.retired),
                            u(c.shedTotal()));
            }
        }
        if (res.watchdogRecoveries || res.watchdogEaseSteps) {
            std::printf("serve: watchdog recovered %llu stall(s), eased "
                        "%llu time(s)\n",
                        u(res.watchdogRecoveries),
                        u(res.watchdogEaseSteps));
        }
        for (std::size_t s = 0; s < res.shardRetired.size(); ++s) {
            std::printf("serve:   shard %zu retired %llu\n", s,
                        u(res.shardRetired[s]));
        }
        if (res.audited) {
            std::printf("audit: %llu commands checked, %llu "
                        "violations\n",
                        u(res.auditCommandsChecked),
                        u(res.auditViolations));
            for (const auto &msg : res.auditMessages)
                std::printf("audit:   %s\n", msg.c_str());
        }
    }

    if (res.failed) {
        for (const std::string &e : res.errors)
            std::fprintf(stderr, "error: %s\n", e.c_str());
        return kExitRuntime;
    }
    if (res.hitCycleCap) {
        std::fprintf(stderr, "error: a shard hit the cycle cap\n");
        return kExitRuntime;
    }
    if (res.requestsRetired == 0) {
        std::fprintf(stderr, "error: nothing retired\n");
        return kExitRuntime;
    }
    if (!res.conserves()) {
        std::fprintf(stderr,
                     "error: conservation broken (%llu produced != "
                     "%llu retired + %llu shed, or a per-class "
                     "mismatch)\n",
                     u(res.requestsProduced), u(res.requestsRetired),
                     u(res.shedTotal()));
        return kExitRuntime;
    }
    return res.audited && res.auditViolations ? kExitAudit : kExitOk;
}
